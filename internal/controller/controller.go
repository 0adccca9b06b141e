// Package controller implements the PathDump controller (§3.3): it
// installs the (static, one-time) tagging rules conceptually owned by the
// fabric, executes debugging queries against distributed TIBs — directly
// or through a Dremel/iMR-style multi-level aggregation tree — receives
// alarms from agents' active monitors, and traps packets whose VLAN stack
// overflowed (suspiciously long paths and routing loops, §4.5).
//
// Every distributed operation takes a context end to end: the entry
// points (ExecuteContext, ExecuteTreeContext, InstallContext,
// UninstallContext, QueryHostContext) take one, the Transport carries it
// to the wire, and a cancelled or expired context aborts in-flight fan-out
// promptly — a slow or dead host cannot pin down a whole query (§5.2's
// interactivity argument).
//
// Queries are additionally straggler-tolerant: HedgeAfter issues a
// duplicate request to a host that has not answered in time (first
// response wins, the loser is cancelled), PerHostTimeout drops a host
// that exhausts its own budget so the rest of the fleet's data still
// comes back (ExecStats.Partial), and PartialOnDeadline turns a
// whole-query deadline expiry into a merged partial result instead of an
// error. An execution fetches every host's answer through one flat fan-out
// and folds them along the tree (query.StreamMerger) as they land, rather
// than barriering on the slowest host.
//
// The §5.2 numbers (ExecStats.ResponseTime, WireBytes) are modelled after
// the fact: the fetch and the fold record each node's outcome on the tree,
// CostModel.account (model.go) computes them from that record. A reply is
// charged its exact JSON length, except a records reply (sized from the
// JSON field layout, within 10 %) and a dropped host (nothing came back:
// the query down, a worker for the per-host budget, 0 reply bytes).
package controller

import (
	"context"
	"sort"
	"sync"
	"time"

	"pathdump/internal/alarms"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// ExecStats summarises one distributed query execution.
type ExecStats struct {
	// Hosts is how many hosts actually answered. On a fully successful
	// execution it equals the number of requested hosts.
	Hosts int
	// Skipped is how many of the requested hosts' answers are missing:
	// on a failed execution, hosts never (or not successfully) queried
	// before the abort; on a successful partial one, stragglers dropped
	// by PerHostTimeout or cut off by the expired query deadline.
	Skipped int
	// Partial is set on a successful execution whose merged result is
	// missing some requested hosts' data (Skipped > 0): stragglers were
	// dropped by the per-host budget, or the whole-query deadline expired
	// under PartialOnDeadline. A non-partial success has every host's
	// data; a failed execution returns no result at all.
	Partial bool
	// Hedged is how many duplicate (hedged) per-host requests were
	// actually issued because a primary outlived HedgeAfter.
	Hedged int
	// Retried is how many per-host (or batched-round) requests were
	// re-issued after a real transport error under the retry policy
	// (Controller.RetryAttempts) — distinct from Hedged, which duplicates
	// slow-but-healthy requests.
	Retried int
	// SegmentsScanned/SegmentsPruned total the hosts' TIB partition
	// telemetry: segments walked versus skipped whole by time-bound
	// intersection. A range-heavy query over segmented stores should show
	// Pruned ≫ Scanned.
	SegmentsScanned int
	SegmentsPruned  int
	// ResponseTime is the modelled end-to-end latency, capped at the cost
	// model's Deadline when one is set. A dropped host holds a modelled
	// worker for the per-host budget and adds no merge cost.
	ResponseTime types.Time
	// WireBytes is the total bytes moved over the management network
	// (queries down plus results up, Figs. 11b/12b): exact JSON lengths,
	// except a records reply (sized from the JSON layout, within 10 %)
	// and a dropped host (0 reply bytes; the query still went down).
	WireBytes int64
	// Trace is the finished span tree for this execution: under the root
	// query span first the fetch — an rpc span per host (hedges, retries
	// and drops labelled) over the agent's scan span, inside one batch
	// span when the transport batched — then the fold: the root's merge
	// span over a node span per aggregation host, nested as the tree is.
	// Always populated; render with Trace.Render (pathdumpctl -trace).
	Trace *obs.Span
}

// Controller is one PathDump controller instance.
type Controller struct {
	Topo *topology.Topology
	T    Transport
	Cost CostModel

	// Parallelism bounds the number of concurrently outstanding per-host
	// transport requests during execute, install and uninstall fan-out
	// (<= 0 means unlimited). The response-time model mirrors the bound:
	// children of an aggregation node are dispatched onto Parallelism
	// modelled workers, so max-over-parallel-children latency degrades
	// gracefully toward sum-latency as the bound tightens.
	Parallelism int

	// PerHostTimeout bounds how long any single host's query — including
	// a hedged duplicate — may take before the host is dropped from the
	// execution and the result is marked partial (0 = wait indefinitely,
	// subject to the whole-query context). Wall-clock; captured once per
	// execution. Setting it is the opt-in: a query with a per-host budget
	// prefers partial data over waiting on a dead host. On a BatchTransport
	// the round is the budgeted unit, for trees as for direct queries:
	// what the transport had not received when it expired is dropped.
	PerHostTimeout time.Duration

	// HedgeAfter issues a duplicate request to a host whose primary has
	// not answered after this long (0 = never hedge). The duplicate stays
	// inside the global Parallelism bound: it races the primary on a free
	// slot when one exists, and otherwise cancels the primary and retries
	// on the slot the host already holds (so hedging cannot starve when
	// stalled primaries hold the whole pool). The first response wins and
	// the loser's context is cancelled. One hedge per host per execution.
	// Hedging is per-host by nature, so when it is enabled the fetch skips
	// the batched transport path.
	HedgeAfter time.Duration

	// PartialOnDeadline makes ExecuteContext/ExecuteTreeContext return
	// whatever has been merged when the whole-query deadline expires —
	// ExecStats.Partial set, error nil — instead of failing with
	// DeadlineExceeded. Explicit cancellation (the caller is gone) and
	// real host failures still error.
	PartialOnDeadline bool

	// RetryAttempts re-issues a failed per-host request (or batched
	// round) up to this many extra times on real transport errors —
	// connection refused, reset, EOF — with jittered exponential backoff.
	// It is distinct from hedging: a hedge duplicates a request that is
	// merely slow, a retry replaces one the transport already failed.
	// Context expiry, fan-out aborts and authoritative server answers
	// (HTTP status errors) are never retried, and when hedging is active
	// the hedge race owns the slow/failed path instead. 0 disables.
	RetryAttempts int

	// RetryBackoff is the base delay before the first retry (default
	// 50 ms when RetryAttempts > 0); each further attempt doubles it,
	// jittered to [d/2, d). The retrying host keeps its Parallelism slot
	// while it backs off — the bound is on outstanding work, and a host
	// mid-retry is still work in progress.
	RetryBackoff time.Duration

	// SlowQueryThreshold feeds executions whose wall-clock exceeds it
	// into the bounded slow-query log (SlowQueries) with their full
	// span tree. 0 disables the log. Set at wiring time.
	SlowQueryThreshold time.Duration

	om   *controllerMetrics
	slow *obs.SlowLog

	mu       sync.Mutex
	pipe     *alarms.Pipeline
	handlers []func(types.Alarm)
	alarmCtx context.Context // base context for alarm dispatch (nil = Background)

	sim       *netsim.Sim
	loopState map[loopKey][]types.LinkID
	loopFns   []func(LoopEvent)
}

// New builds a controller over a transport. sim may be nil when no
// in-fabric trap handling is needed (e.g. pure HTTP deployments).
func New(topo *topology.Topology, t Transport, sim *netsim.Sim) *Controller {
	c := &Controller{
		Topo:      topo,
		T:         t,
		Cost:      DefaultCostModel(),
		pipe:      alarms.New(alarms.Config{}),
		sim:       sim,
		slow:      obs.NewSlowLog(0),
		loopState: make(map[loopKey][]types.LinkID),
	}
	if sim != nil {
		sim.SetTrapHandler(c)
	}
	return c
}

// VirtualNow returns the simulator's virtual clock, or 0 when the
// controller runs without an attached fabric (pure HTTP deployments).
// Scenario detectors use it to timestamp the alarms they raise.
func (c *Controller) VirtualNow() types.Time {
	if c.sim == nil {
		return 0
	}
	return c.sim.Now()
}

// QueryHostContext executes one query at one host (the direct query
// primitive); a cancelled or expired context aborts the request.
func (c *Controller) QueryHostContext(ctx context.Context, host types.HostID, q query.Query) (query.Result, error) {
	res, _, err := c.T.Query(ctx, host, q)
	return res, err
}

// ExecuteContext runs a query at every listed host as a direct query —
// each host contacted straight from the controller, results folded at the
// controller — and returns the merged result with modelled cost (§3.2).
// Cancellation (or an expired deadline) aborts the in-flight fan-out
// promptly: pending host requests are skipped, in-flight ones are cut
// off at the transport, and the returned ExecStats reports how many
// hosts were skipped. The error is the context's.
func (c *Controller) ExecuteContext(ctx context.Context, hosts []types.HostID, q query.Query) (query.Result, ExecStats, error) {
	return c.run(ctx, hosts, nil, q)
}

// ExecuteTreeContext runs a query through a multi-level aggregation tree
// with the given per-level fan-outs (e.g. [7,4,4] builds the paper's
// 4-level tree over 112 hosts). Hosts double as interior aggregation
// nodes: the tree orders the merge and shapes the modelled cost, but
// routes no request — every host is asked straight from the controller.
// Cancellation is as for ExecuteContext.
func (c *Controller) ExecuteTreeContext(ctx context.Context, hosts []types.HostID, q query.Query, fanouts []int) (query.Result, ExecStats, error) {
	return c.run(ctx, hosts, fanouts, q)
}

// InstallContext installs a query at each listed host (§2.1 controller
// API). It returns per-host installation IDs for UninstallContext.
// Installation fans out concurrently (bounded by Parallelism) unless the
// transport declares SerialControl. It is atomic at the fleet level: on
// the first failure every already-installed ID is rolled back (best
// effort) before the error is returned, so no host is left running a
// query the caller never got a handle to. The rollback runs even when ctx
// is already cancelled (it detaches via context.WithoutCancel):
// cancellation must not orphan installed queries.
func (c *Controller) InstallContext(ctx context.Context, hosts []types.HostID, q query.Query, period types.Time) (map[types.HostID]int, error) {
	out := make(map[types.HostID]int, len(hosts))
	var mu sync.Mutex
	err := c.forEachHost(ctx, hosts, true, func(ctx context.Context, h types.HostID) error {
		id, err := c.T.Install(ctx, h, q, period)
		if err != nil {
			return err
		}
		mu.Lock()
		out[h] = id
		mu.Unlock()
		return nil
	})
	if err != nil {
		if len(out) > 0 {
			// Best-effort rollback so the partial fleet is not left
			// running an orphaned query; ignore rollback failures — the
			// install error is the one the caller must see.
			_ = c.UninstallContext(context.WithoutCancel(ctx), out)
		}
		return nil, err
	}
	return out, nil
}

// UninstallContext removes previously installed queries. Every host is
// attempted (best effort, concurrently unless the transport declares
// SerialControl); the first failure in deterministic host order is
// returned.
func (c *Controller) UninstallContext(ctx context.Context, ids map[types.HostID]int) error {
	hosts := make([]types.HostID, 0, len(ids))
	for h := range ids {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	return c.forEachHost(ctx, hosts, false, func(ctx context.Context, h types.HostID) error {
		return c.T.Uninstall(ctx, h, ids[h])
	})
}

// forEachHost runs fn once per host: concurrently under a fresh bounded
// fan-out pool carrying ctx, or — when the transport declares
// SerialControl, or there is nothing to overlap — strictly in host order
// on the calling goroutine, checking ctx before every host. With
// abortOnErr the first failure latches and pending hosts are skipped
// (Install); without it every host is attempted (Uninstall's best effort)
// unless ctx is cancelled. The reported error is deterministic in host
// order regardless of goroutine timing.
func (c *Controller) forEachHost(ctx context.Context, hosts []types.HostID, abortOnErr bool, fn func(ctx context.Context, h types.HostID) error) error {
	errs := make([]error, len(hosts))
	if _, serial := c.T.(SerialControl); serial || len(hosts) < 2 {
		for i, h := range hosts {
			if errs[i] = ctx.Err(); errs[i] != nil {
				break
			}
			if errs[i] = fn(ctx, h); errs[i] != nil && abortOnErr {
				break
			}
		}
		return firstError(errs)
	}
	fo := newFanout(ctx, c.Parallelism)
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h types.HostID) {
			defer wg.Done()
			if err := fo.acquire(); err != nil {
				errs[i] = err
				return
			}
			defer fo.release()
			errs[i] = fn(fo.ctx, h)
			if errs[i] != nil && abortOnErr {
				fo.abort()
			}
		}(i, h)
	}
	wg.Wait()
	return firstError(errs)
}
