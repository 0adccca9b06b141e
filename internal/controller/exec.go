package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// treeNode is one aggregation-tree position; the root has no host. The
// executor leaves each node's outcome on it for the §5.2 accounting
// (model.go): answered and meta are written once by the goroutine that
// resolved the node, size and items by the one that folded it into its
// parent, each before that goroutine reports on its done channel — and
// all are read only after the root runNode has returned.
type treeNode struct {
	host     types.HostID
	isHost   bool
	answered bool // the node's own host replied (false: dropped)
	children []*treeNode
	meta     QueryMeta // the host's reply telemetry
	size     int64     // the subtree's result as its parent received it:
	items    int       // wire bytes and merge items (0: nothing came back)
}

func (n *treeNode) isLeaf() bool { return n.isHost && len(n.children) == 0 }

// leafNodes carves one level's nodes from a single slice (as buildLevels
// does): a tree costs two allocations per level, not one per host.
func leafNodes(hosts []types.HostID) []*treeNode {
	nodes := make([]treeNode, len(hosts))
	out := make([]*treeNode, len(hosts))
	for i, h := range hosts {
		nodes[i] = treeNode{host: h, isHost: true}
		out[i] = &nodes[i]
	}
	return out
}

// buildLevels partitions hosts into fanouts[0] contiguous groups; each
// group's first host becomes the aggregation node for the rest,
// recursively.
func buildLevels(hosts []types.HostID, fanouts []int) []*treeNode {
	if len(hosts) == 0 {
		return nil
	}
	if len(fanouts) == 0 {
		return leafNodes(hosts)
	}
	n := fanouts[0]
	if n <= 0 || n > len(hosts) {
		n = len(hosts)
	}
	nodes := make([]treeNode, n)
	out := make([]*treeNode, 0, n)
	for g := 0; g < n; g++ {
		lo := g * len(hosts) / n
		hi := (g + 1) * len(hosts) / n
		group := hosts[lo:hi]
		if len(group) == 0 {
			continue
		}
		node := &nodes[len(out)]
		*node = treeNode{host: group[0], isHost: true, children: buildLevels(group[1:], fanouts[1:])}
		out = append(out, node)
	}
	return out
}

// countHosts returns the number of host positions in the tree (leaf and
// interior aggregation hosts alike) — the denominator for Skipped.
func countHosts(n *treeNode) int {
	total := 0
	if n.isHost {
		total++
	}
	for _, ch := range n.children {
		total += countHosts(ch)
	}
	return total
}

// newQueryFanout builds the fan-out pool for one query execution,
// capturing the straggler policy alongside the parallelism bound.
// Control-plane fan-outs (Install/Uninstall) use plain newFanout: hedging
// would double-install and partial installs are rolled back, not kept.
func (c *Controller) newQueryFanout(ctx context.Context) *fanout {
	fo := newFanout(ctx, c.Parallelism)
	fo.perHostTimeout = c.PerHostTimeout
	fo.hedgeAfter = c.HedgeAfter
	fo.partial = c.PartialOnDeadline
	if fo.hedgeAfter <= 0 {
		// Under hedging the hedge race owns the slow/failed path instead.
		fo.retryAttempts = c.RetryAttempts
	}
	fo.retryBackoff = c.RetryBackoff
	fo.inflight = c.metrics().inflight
	return fo
}

// dropHost decides whether a per-host failure drops the host from the
// execution (straggler tolerance) rather than failing it. Two cases drop:
// the host's own PerHostTimeout budget expired while the query as a whole
// was still live, and the whole-query deadline expired with partial mode
// on. Explicit cancellation and real transport errors never drop.
func (c *Controller) dropHost(fo *fanout, err error) bool {
	if !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	qerr := fo.ctx.Err()
	if qerr == nil {
		// The query is still live, so the deadline that fired was the
		// host's own budget.
		return fo.perHostTimeout > 0
	}
	return fo.partial && errors.Is(qerr, context.DeadlineExceeded)
}

// run executes the query over the tree, merging bottom-up. At each node
// children are dispatched onto goroutines (at most Parallelism transport
// requests outstanding across the whole tree) and merged as they land:
// child i folds in the moment children 0..i-1 have folded and i has
// arrived, so merge work overlaps waiting on stragglers while the output
// stays identical to an index-order merge. The executor only executes and
// records each node's outcome on the tree; the modelled response time and
// traffic are accounted afterwards, in one call, from that record. On
// failure — including ctx cancellation — nothing is accounted, but the
// stats still report how many hosts had answered versus how many were
// skipped, so callers can tell a near-complete cancelled query from one
// cut off at the start. A success missing dropped stragglers' data sets
// Partial instead.
func (c *Controller) run(ctx context.Context, n *treeNode, q query.Query) (query.Result, ExecStats, error) {
	qBytes, err := json.Marshal(q)
	if err != nil {
		return query.Result{}, ExecStats{}, err
	}
	// Every execution is traced: the ID rides to agents in the
	// transport headers, the span tree comes back on ExecStats. An
	// execution arriving with a trace ID (forwarded from an upstream
	// controller) keeps it.
	trace := obs.TraceFromContext(ctx)
	if trace == "" {
		trace = obs.NewTraceID()
		ctx = obs.ContextWithTrace(ctx, trace)
	}
	total := countHosts(n)
	root := obs.NewSpan("query")
	root.SetAttr("trace", trace)
	root.SetAttr("op", string(q.Op))
	root.SetInt("hosts", int64(total))
	m := c.metrics()
	m.queries.Inc()
	m.fanoutHosts.Observe(float64(total))
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
	out := c.runNode(n, q, fo, root)
	stats := ExecStats{Hedged: int(fo.hedged.Load()), Retried: int(fo.retried.Load()), Trace: root}
	m.hedged.Add(uint64(stats.Hedged))
	m.retried.Add(uint64(stats.Retried))
	if out.err != nil {
		stats.Hosts = int(fo.queried.Load())
		stats.Skipped = total - stats.Hosts
		root.SetAttr("error", out.err.Error())
		return query.Result{}, stats, out.err
	}
	acct := c.Cost.account(n, int64(len(qBytes)), fo.parallelism, types.Time(fo.perHostTimeout))
	stats.Hosts = acct.hosts
	stats.Skipped = total - acct.hosts
	stats.Partial = stats.Skipped > 0
	stats.ResponseTime = acct.t
	stats.WireBytes = acct.wire
	stats.SegmentsScanned = acct.segScanned
	stats.SegmentsPruned = acct.segPruned
	m.hostsQueried.Add(uint64(stats.Hosts))
	if stats.Partial {
		m.partial.Inc()
	}
	return *out.res, stats, nil
}

// childOut is one child subtree's outcome, slotted by child index so the
// merge remains deterministic regardless of goroutine completion order.
// res points at the result where it landed — a batch reply's slot, the
// child node's own merge base — and stays valid until the parent's merge
// is done with it. err==nil with !ok marks a dropped straggler (or a
// subtree whose every host was dropped): nothing arrived to fold.
type childOut struct {
	res *query.Result
	ok  bool
	err error
}

func (c *Controller) runNode(n *treeNode, q query.Query, fo *fanout, sp *obs.Span) childOut {
	nc := len(n.children)
	outs := make([]childOut, nc)
	done := make(chan int, nc)

	// Leaf children can ride one batched transport round; subtrees (and
	// leaves on plain transports) recurse on their own goroutines. With
	// hedging on, leaves stay per-host: a hedge duplicates one host's
	// request, not a whole daemon's round.
	var batchIdx []int
	if bt, ok := c.T.(BatchTransport); ok && fo.hedgeAfter <= 0 {
		batchIdx = make([]int, 0, nc)
		for i, ch := range n.children {
			if ch.isLeaf() {
				batchIdx = append(batchIdx, i)
			}
		}
		if len(batchIdx) >= 2 {
			go c.runBatch(bt, n, q, batchIdx, outs, fo, done, sp)
		} else {
			batchIdx = nil
		}
	}
	for i, ch := range n.children {
		if batchIdx != nil && ch.isLeaf() {
			continue // rides the batch
		}
		go func(i int, ch *treeNode) {
			if len(ch.children) == 0 {
				// Leaves hang their rpc span directly off the parent.
				outs[i] = c.runNode(ch, q, fo, sp)
			} else {
				// Interior aggregation nodes get their own span so the
				// tree shape survives into the trace. It is finished
				// before done is signalled: the parent may hand the span
				// tree to its caller the moment its last child reports.
				csp := sp.StartChild("node")
				csp.SetHost("host", ch.host)
				outs[i] = c.runNode(ch, q, fo, csp)
				csp.Finish()
			}
			done <- i
		}(i, ch)
	}

	// The node's own host executes on this goroutine, concurrently with
	// its children (an aggregation host scans its TIB while waiting); its
	// result is the merge base.
	out := childOut{res: &query.Result{Op: q.Op}}
	errs := make([]error, 1, nc+1)
	if n.isHost {
		r, meta, err := c.queryHost(n.host, q, fo, sp)
		switch {
		case err == nil:
			*out.res, out.ok = r, true
			out.res.Op = q.Op
			n.answered, n.meta = true, meta
		case c.dropHost(fo, err):
			// Straggler dropped: the node aggregates without its own data.
		default:
			fo.abort()
			errs[0] = err
		}
	}

	// Streaming interior merge: drain the completion channel and fold
	// each child in the moment the index prefix allows, so merging
	// overlaps waiting on the remaining children.
	var msp *obs.Span
	if nc > 0 {
		msp = sp.StartChild("merge")
		msp.SetInt("children", int64(nc))
	}
	sm := query.NewStreamMerger(q, out.res, nc)
	for drained := 0; drained < nc; drained++ {
		i := <-done
		switch o := &outs[i]; {
		case o.err != nil:
			errs = append(errs, o.err)
			sm.Add(i, nil)
		case !o.ok:
			// Dropped straggler(s): nothing arrived to merge.
			sm.Add(i, nil)
		default:
			// Sized as it is folded in, while its buffers are still live.
			n.children[i].size, n.children[i].items = measure(o.res)
			out.ok = true
			sm.Add(i, o.res)
		}
	}
	if q.Op == query.OpRecords {
		// Each child's record slice was copied into the merged result;
		// recycle the pooled buffers the transports drew them from.
		for _, o := range outs {
			if o.res != nil {
				query.PutRecordBuf(o.res.Records)
				o.res.Records = nil
			}
		}
	}
	msp.Finish()
	out.err = firstError(errs)
	return out
}

// runBatch resolves the leaf children listed in batchIdx through one
// BatchTransport round, filling their childOut slots and reporting each
// on the done channel. The batch draws real slots from the shared fan-out
// pool: one blocking acquire guarantees progress, then it widens greedily
// up to the batch size, and the transport's internal concurrency is
// capped at the slots actually held — so batched and per-host requests
// together never exceed the global Parallelism bound. A PerHostTimeout
// budgets the whole round: the round trip is the per-host unit here, and
// a round that exhausts it drops every host it carried.
func (c *Controller) runBatch(bt BatchTransport, n *treeNode, q query.Query, batchIdx []int, outs []childOut, fo *fanout, done chan<- int, sp *obs.Span) {
	// Deferred calls run last-in first-out: the done signals are
	// registered first so that they go out last, after the batch span
	// (and the rpc spans under it) has been finished. The parent may hand
	// the span tree to its caller the moment its last child reports, and
	// a span finished after that is a write racing the caller's reads.
	defer func() {
		for _, i := range batchIdx {
			done <- i
		}
	}()
	bsp := sp.StartChild("batch")
	bsp.SetInt("hosts", int64(len(batchIdx)))
	defer bsp.Finish()
	hosts := make([]types.HostID, len(batchIdx))
	for j, i := range batchIdx {
		hosts[j] = n.children[i].host
	}
	err := fo.acquire()
	var replies []BatchReply
	if err == nil {
		held := 1
		for held < len(hosts) && fo.tryAcquire() {
			held++
		}
		defer func() {
			for i := 0; i < held; i++ {
				fo.release()
			}
		}()
		parallel := held
		if fo.sem == nil {
			parallel = 0 // unlimited pool: let the transport fan out freely
		}
		// A whole-round transport failure is retried like a per-host one:
		// the round trip is this path's request unit.
		err = fo.attempt(bsp, func(ctx context.Context) (err error) {
			replies, err = bt.QueryMany(ctx, hosts, q, parallel)
			return err
		})
		if err == nil && len(replies) != len(hosts) {
			err = fmt.Errorf("controller: batch query returned %d replies for %d hosts", len(replies), len(hosts))
		}
	}
	for j, i := range batchIdx {
		herr := err
		if herr == nil {
			herr = replies[j].Err
		}
		if herr != nil {
			// A dropped straggler keeps its zero childOut (no result, no
			// error); anything else fails the slot and aborts the fan-out.
			if !c.dropHost(fo, herr) {
				fo.abort()
				outs[i].err = herr
			}
			continue
		}
		rep := &replies[j]
		fo.queried.Add(1)
		hsp := bsp.StartChild("rpc")
		hsp.SetHost("host", rep.Host)
		attachScan(hsp, rep.Meta)
		hsp.Finish()
		n.children[i].answered, n.children[i].meta = true, rep.Meta
		outs[i] = childOut{res: &rep.Result, ok: true}
	}
}

// queryHost issues one host's query through the bounded fan-out pool
// under the execution's context, applying the per-host budget and either
// the retry policy or — when hedging is on — a duplicate request raced
// against a slow primary. Errors are classified by the caller (dropHost):
// failing versus dropping a host is a policy decision made where the
// result slot lives.
func (c *Controller) queryHost(host types.HostID, q query.Query, fo *fanout, sp *obs.Span) (r query.Result, meta QueryMeta, err error) {
	if err := fo.acquire(); err != nil {
		return query.Result{}, QueryMeta{}, err
	}
	defer fo.release()
	rpc := sp.StartChild("rpc")
	rpc.SetHost("host", host)
	defer rpc.Finish()

	err = fo.attempt(rpc, func(ctx context.Context) (err error) {
		if fo.hedgeAfter > 0 {
			r, meta, err = c.queryHedged(ctx, host, q, fo, rpc)
		} else {
			r, meta, err = c.T.Query(ctx, host, q)
		}
		return err
	})
	if err == nil {
		fo.queried.Add(1)
		attachScan(rpc, meta)
	} else if c.dropHost(fo, err) {
		rpc.SetAttr("dropped", "true")
	}
	return r, meta, err
}

// hostReply is one attempt's answer inside a hedged host query.
type hostReply struct {
	res  query.Result
	meta QueryMeta
	err  error
}

// queryHedged races a primary request against a duplicate issued after
// fo.hedgeAfter of silence. The first success wins and the other
// attempt's context is cancelled; a primary that fails before the hedge
// fires returns its error immediately (hedging masks slowness, not
// failure); if both attempts fail, the most useful error is reported.
//
// The duplicate stays inside the global Parallelism bound. When a free
// slot exists at hedge time it takes one and genuinely races the
// primary. When the pool is exhausted — typically by stalled primaries
// exactly like this one — waiting for a second slot could starve
// forever (this host's own slot is held for the whole race), so the
// hedge falls back from racing to retrying: the primary is cancelled
// and the duplicate reissues on the slot this host already holds, once
// the primary has vacated it. Either way at most one transport request
// per held slot is in flight.
func (c *Controller) queryHedged(hostCtx context.Context, host types.HostID, q query.Query, fo *fanout, rpc *obs.Span) (query.Result, QueryMeta, error) {
	ctx, cancel := context.WithCancel(hostCtx)
	defer cancel() // cut off the losing (or still-pending) attempt
	primCtx, primCancel := context.WithCancel(ctx)
	defer primCancel()

	replies := make(chan hostReply, 2) // every launched attempt delivers
	go func() {
		r, m, err := c.T.Query(primCtx, host, q)
		replies <- hostReply{res: r, meta: m, err: err}
	}()

	// launchHedge issues the duplicate; with ownSlot it holds (and must
	// release) a freshly acquired pool slot, otherwise it reuses the slot
	// queryHost already holds for this host.
	launchHedge := func(ownSlot bool) {
		go func() {
			if ownSlot {
				defer fo.release()
			}
			if ctx.Err() != nil {
				replies <- hostReply{err: ctx.Err()}
				return
			}
			fo.hedged.Add(1)
			hsp := rpc.StartChild("hedge")
			hsp.SetHost("host", host)
			if !ownSlot {
				// The pool was exhausted: the duplicate replaced the
				// cancelled primary on its slot instead of racing it.
				hsp.SetAttr("slot", "reused")
			}
			r, m, err := c.T.Query(ctx, host, q)
			hsp.Finish()
			replies <- hostReply{res: r, meta: m, err: err}
		}()
	}

	timer := time.NewTimer(fo.hedgeAfter)
	defer timer.Stop()

	inFlight := 1
	retryOnPrimaryReturn := false
	var errs []error
	for {
		select {
		case rep := <-replies:
			inFlight--
			if rep.err == nil {
				return rep.res, rep.meta, nil
			}
			if retryOnPrimaryReturn {
				// The cancelled primary has vacated this host's slot; the
				// duplicate takes its place. Our own cancellation echo is
				// not a reportable failure, but a real primary error is.
				retryOnPrimaryReturn = false
				if !errors.Is(rep.err, context.Canceled) {
					errs = append(errs, rep.err)
				}
				inFlight++
				launchHedge(false)
				continue
			}
			errs = append(errs, rep.err)
			if inFlight == 0 {
				return query.Result{}, QueryMeta{}, firstError(errs)
			}
		case <-timer.C:
			if fo.sem == nil || fo.tryAcquire() {
				inFlight++
				launchHedge(fo.sem != nil)
				continue
			}
			primCancel()
			retryOnPrimaryReturn = true
		}
	}
}
