package controller

import (
	"context"
	"encoding/json"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// treeNode is one aggregation-tree position; the root has no host. An
// execution leaves each node's outcome on it for the §5.2 accounting
// (model.go): the fetch writes answered and meta — once, on the goroutine
// that received the host's reply, before it marks the slot landed — and
// the fold writes size and items as it merges the node into its parent.
// All four are read only after the fold has returned.
type treeNode struct {
	host     types.HostID
	isHost   bool
	answered bool // the node's own host replied (false: dropped)
	children []*treeNode
	meta     QueryMeta // the host's reply telemetry
	size     int64     // the subtree's result as its parent received it:
	items    int       // wire bytes and merge items (0: nothing came back)
}

// buildLevels partitions hosts into fanouts[0] contiguous groups; each
// group's first host becomes the aggregation node for the rest,
// recursively. Past the last level, or under a fan-out that does not fit,
// every host is its own group: a leaf. It returns the top level and every
// node in DFS pre-order — a node before its children, children by index:
// the order the fetch asks the hosts in and the fold consumes them in. The
// nodes and all their children slices are carved from one slice each, so a
// tree costs three allocations, not one per host or two per level.
func buildLevels(hosts []types.HostID, fanouts []int) ([]*treeNode, []treeNode) {
	dfs := make([]treeNode, 0, len(hosts)) // never regrown: nodes are pointed at
	kids := make([]*treeNode, len(hosts))  // every host is some node's child
	var level func(hosts []types.HostID, fanouts []int) []*treeNode
	level = func(hosts []types.HostID, fanouts []int) []*treeNode {
		if len(hosts) == 0 {
			return nil
		}
		n, rest := len(hosts), fanouts
		if len(fanouts) > 0 {
			rest = fanouts[1:]
			if fanouts[0] > 0 && fanouts[0] < n {
				n = fanouts[0]
			}
		}
		out := kids[:n:n]
		kids = kids[n:]
		for g := range out {
			group := hosts[g*len(hosts)/n : (g+1)*len(hosts)/n]
			dfs = append(dfs, treeNode{host: group[0], isHost: true})
			out[g] = &dfs[len(dfs)-1]
			out[g].children = level(group[1:], rest)
		}
		return out
	}
	return level(hosts, fanouts), dfs
}

// run executes the query over hosts arranged by fanouts (none: a direct
// query, the depth-1 tree): fetch asks every host position once through
// one flat fan-out (fetch.go), then fold merges the answers bottom-up on
// this goroutine. Both only record what happened on the tree; the modelled
// response time and traffic are accounted afterwards, in one call, from
// that record. On failure — ctx cancellation included — nothing is
// accounted, but the stats still say how many hosts had answered and how
// many were skipped, telling a near-complete cancelled query from one cut
// off at the start. A success missing dropped stragglers' data sets
// Partial instead.
func (c *Controller) run(ctx context.Context, hostIDs []types.HostID, fanouts []int, q query.Query) (query.Result, ExecStats, error) {
	qBytes, err := json.Marshal(q)
	if err != nil {
		return query.Result{}, ExecStats{}, err
	}
	// Every execution is traced: the ID names the span tree that comes
	// back on ExecStats and the slow-log entry. An execution arriving
	// with a trace ID (forwarded from an upstream controller) keeps it.
	trace := obs.TraceFromContext(ctx)
	if trace == "" {
		trace = obs.NewTraceID()
		ctx = obs.ContextWithTrace(ctx, trace)
	}
	top, hosts := buildLevels(hostIDs, fanouts)
	n := &treeNode{children: top}
	root := obs.NewSpan("query")
	root.SetAttr("trace", trace)
	root.SetAttr("op", string(q.Op))
	root.SetInt("hosts", int64(len(hosts)))
	m := c.metrics()
	m.queries.Inc()
	m.fanoutHosts.Observe(float64(len(hosts)))
	started := time.Now()
	defer func() {
		root.Finish()
		m.queryDur.ObserveDuration(root.Dur)
		if th := c.SlowQueryThreshold; th > 0 && root.Dur >= th {
			c.slow.Add(obs.SlowQuery{
				Trace: trace,
				Query: string(qBytes),
				Dur:   root.Dur,
				At:    started,
				Span:  root,
			})
		}
	}()
	fo := c.newQueryFanout(ctx)
	slots, replies := c.fetch(hosts, q, fo, root)
	f := fold{q: q, slots: slots}
	res, _ := f.node(n, root)
	if res.Top != nil {
		// A top-k answer is the root merger's list, drawn from the pool
		// and sized for the fold: the caller keeps a copy of exactly its
		// length, and the pool gets the list back.
		top := make([]query.FlowBytes, len(res.Top))
		copy(top, res.Top)
		query.PutTopBuf(res.Top)
		res.Top = top
	}
	f.recycle()
	// Every reply is folded and nothing holds a slot: the trace's rpc
	// spans are derived from the tree nodes, never the replies.
	putBatchReplies(replies)
	stats := ExecStats{Hedged: int(fo.hedged.Load()), Retried: int(fo.retried.Load()), Trace: root}
	m.hedged.Add(uint64(stats.Hedged))
	m.retried.Add(uint64(stats.Retried))
	if err := firstError(f.errs); err != nil {
		stats.Hosts = int(fo.queried.Load())
		stats.Skipped = len(hosts) - stats.Hosts
		root.SetAttr("error", err.Error())
		return query.Result{}, stats, err
	}
	acct := c.Cost.account(n, int64(len(qBytes)), fo.parallelism, types.Time(fo.perHostTimeout))
	stats.Hosts = acct.hosts
	stats.Skipped = len(hosts) - acct.hosts
	stats.Partial = stats.Skipped > 0
	stats.ResponseTime = acct.t
	stats.WireBytes = acct.wire
	stats.SegmentsScanned = acct.segScanned
	stats.SegmentsPruned = acct.segPruned
	m.hostsQueried.Add(uint64(stats.Hosts))
	if stats.Partial {
		m.partial.Inc()
	}
	return *res, stats, nil
}

// fold is the second phase of an execution: a post-order walk of the tree
// on the caller's goroutine, one StreamMerger per node that has children.
// It meets the host positions in the order the fetch asked them and waits
// for one only when it gets there, so on a per-host transport merging what
// has landed overlaps waiting on what has not, with no goroutine per node
// and nothing to signal. Once the root is folded every slot has landed: no
// request is still out and no span still open.
type fold struct {
	q     query.Query
	slots []hostSlot
	next  int     // the DFS position the walk has reached
	errs  []error // the hosts' failures, in DFS order
}

// node folds n's subtree and returns its result where it lies (a leaf's
// reply in its slot, an aggregation host's own reply grown by its
// children's), valid until recycle; ok is false when nothing came back
// from the whole subtree. The node's own host is the merge base and the
// children are added in index order, so the merged bytes depend neither on
// which request carried which host nor on the order replies came back in.
func (f *fold) node(n *treeNode, sp *obs.Span) (res *query.Result, ok bool) {
	name := "merge"
	if n.isHost {
		s := &f.slots[f.next]
		f.next++
		s.landed.Wait()
		if s.err != nil {
			f.errs = append(f.errs, s.err)
		}
		if res = s.res; res != nil {
			res.Op, ok = f.q.Op, true
		}
		if len(n.children) == 0 {
			return res, ok
		}
		name = "node"
	}
	if res == nil {
		// The root, or an aggregation host that was dropped: it merges its
		// children without data of its own.
		res = &query.Result{Op: f.q.Op}
	}
	// One span per merge, nested as the tree is: the root's is "merge", an
	// aggregation host's "node". A leaf has only its rpc span to show, and
	// the fetch recorded that.
	sp = sp.StartChild(name)
	if n.isHost {
		sp.SetHost("host", n.host)
	}
	sp.SetInt("children", int64(len(n.children)))
	own := res.Top // an aggregation host's own list, pooled like its children's
	sm := query.NewStreamMerger(f.q, res, len(n.children))
	folded := false
	for i, ch := range n.children {
		r, cok := f.node(ch, sp)
		if !cok {
			sm.Add(i, nil)
			continue
		}
		ch.size, ch.items = measure(r)
		ok, folded = true, true
		sm.Add(i, r)
		// A top-k fold copies the child's list: it goes back to the pool
		// now, not after the root.
		query.PutTopBuf(r.Top)
		r.Top = nil
	}
	sm.Release()
	if folded && f.q.Op == query.OpTopK {
		// The merger published its own list over the base's.
		query.PutTopBuf(own)
	}
	sp.Finish()
	return res, ok
}

// recycle hands the replies' record slices back to the pool the transports
// drew them from — once the root has been folded, not child by child: a
// records merger concatenates when its last slot is consumed and reads its
// children until then, as its parent's reads the concatenation in turn. By
// now every slot's slice has been copied into the root's result.
func (f *fold) recycle() {
	if f.q.Op != query.OpRecords {
		return
	}
	for i := range f.slots {
		if r := f.slots[i].res; r != nil {
			query.PutRecordBuf(r.Records)
			r.Records = nil
		}
	}
}
