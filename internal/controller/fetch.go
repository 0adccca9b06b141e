package controller

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

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

// hostSlot is one host position's outcome, as the fetch hands it to the
// fold. res points at the reply where it landed and stays valid until the
// fold recycles it; nil res and nil err mark a dropped straggler.
type hostSlot struct {
	res    *query.Result
	err    error          // a failure that is not a drop: it fails the execution
	landed sync.WaitGroup // held while the host's request is still out
}

// land files one host's outcome on its slot and its tree node. A dropped
// straggler keeps its zero slot — an aggregation host among them still
// merges its children, without its own data.
func (c *Controller) land(n *treeNode, s *hostSlot, res *query.Result, meta QueryMeta, err error, fo *fanout) {
	switch {
	case err == nil:
		s.res, n.answered, n.meta = res, true, meta
	case !c.dropHost(fo, err):
		fo.abort()
		s.err = err
	}
}

// fetch is the first phase of an execution: it asks every host position of
// the tree (hosts, in DFS order) exactly once and returns a slot per host.
// The tree has no say in which request carries which host — it shapes the
// fold and the cost model, and a direct query is its depth-1 case. A
// batching transport takes them all in one QueryMany: one round trip per
// daemon, whatever the tree's depth. With hedging on (a hedge duplicates
// one host's request, not a daemon's round) or a plain transport,
// min(Parallelism, n) workers pull positions in DFS order through
// queryHost and fetch returns at once; the fold, which waits on every
// slot, is what joins them. A batched round also returns the transport's
// reply array, which the slots point into: the caller hands it back
// (putBatchReplies) once the fold is done.
func (c *Controller) fetch(hosts []treeNode, q query.Query, fo *fanout, sp *obs.Span) ([]hostSlot, []BatchReply) {
	slots := make([]hostSlot, len(hosts))
	if bt, ok := c.T.(BatchTransport); ok && fo.hedgeAfter <= 0 && len(hosts) > 0 {
		return slots, c.fetchBatch(bt, hosts, slots, q, fo, sp)
	}
	results := make([]query.Result, len(hosts))
	workers := len(hosts)
	if fo.parallelism > 0 && fo.parallelism < workers {
		workers = fo.parallelism
	}
	for j := range slots {
		slots[j].landed.Add(1)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				j := int(next.Add(1)) - 1
				if j >= len(hosts) {
					return
				}
				r, meta, err := c.queryHost(hosts[j].host, q, fo, sp)
				results[j] = r
				c.land(&hosts[j], &slots[j], &results[j], meta, err, fo)
				slots[j].landed.Done()
			}
		}()
	}
	return slots, nil
}

// fetchBatch resolves every host through one BatchTransport round, on the
// caller's goroutine. The round draws real slots from the fan-out pool —
// one blocking acquire, then greedily up to the number of hosts — and caps
// the transport's internal concurrency at the slots held: the Parallelism
// bound, handed down. A PerHostTimeout budgets the whole round. What the
// transport could not get within it comes back as per-reply errors and
// only those hosts are dropped (over HTTP: the daemons that had not
// answered); a transport that fails the round whole drops every host.
// It returns the reply array the slots point into, nil if the round
// failed whole.
func (c *Controller) fetchBatch(bt BatchTransport, hosts []treeNode, slots []hostSlot, q query.Query, fo *fanout, sp *obs.Span) []BatchReply {
	bsp := sp.StartChild("batch")
	bsp.SetInt("hosts", int64(len(hosts)))
	defer bsp.Finish()
	ids := make([]types.HostID, len(hosts))
	for j := range hosts {
		ids[j] = hosts[j].host
	}
	var replies []BatchReply
	err := fo.acquire()
	if err == nil {
		held := 1
		for held < len(ids) && fo.tryAcquire() {
			held++
		}
		parallel := held
		if fo.sem == nil {
			parallel = 0 // unlimited pool: let the transport fan out freely
		}
		err = fo.attempt(bsp, func(ctx context.Context) (err error) {
			replies, err = bt.QueryMany(ctx, ids, q, parallel)
			return err
		})
		for ; held > 0; held-- {
			fo.release()
		}
		if err == nil && len(replies) != len(ids) {
			err = fmt.Errorf("controller: batch query returned %d replies for %d hosts", len(replies), len(ids))
		}
	}
	if err != nil { // the round's failure is every host's
		for j := range hosts {
			c.land(&hosts[j], &slots[j], nil, QueryMeta{}, err, fo)
		}
		return nil
	}
	for j := range hosts {
		rep := &replies[j]
		c.land(&hosts[j], &slots[j], &rep.Result, rep.Meta, rep.Err, fo)
		if rep.Err == nil {
			fo.queried.Add(1)
		}
	}
	// An answered host's rpc and scan spans would hold nothing its node
	// does not: they are built from the nodes when the trace is read.
	bsp.Derive(func(into *obs.Span) { hostSpans(into, hosts) })
	return replies
}

// hostSpans hangs an rpc span, with its scan under it, for every answered
// host of a batched round, in DFS order.
func hostSpans(into *obs.Span, hosts []treeNode) {
	for j := range hosts {
		if n := &hosts[j]; n.answered {
			rpc := into.StartChild("rpc")
			rpc.SetHost("host", n.host)
			attachScan(rpc, n.meta)
		}
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

	replies := make(chan BatchReply, 2) // every launched attempt delivers
	go func() {
		r, m, err := c.T.Query(primCtx, host, q)
		replies <- BatchReply{Host: host, Result: r, Meta: m, Err: err}
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
				replies <- BatchReply{Host: host, Err: ctx.Err()}
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
			replies <- BatchReply{Host: host, Result: r, Meta: m, Err: err}
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
			if rep.Err == nil {
				return rep.Result, rep.Meta, nil
			}
			if retryOnPrimaryReturn {
				// The cancelled primary has vacated this host's slot; the
				// duplicate takes its place. Our own cancellation echo is
				// not a reportable failure, but a real primary error is.
				retryOnPrimaryReturn = false
				if !errors.Is(rep.Err, context.Canceled) {
					errs = append(errs, rep.Err)
				}
				inFlight++
				launchHedge(false)
				continue
			}
			errs = append(errs, rep.Err)
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
