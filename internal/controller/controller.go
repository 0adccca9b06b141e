// Package controller implements the PathDump controller (§3.3): it
// installs the (static, one-time) tagging rules conceptually owned by the
// fabric, executes debugging queries against distributed TIBs — directly
// or through a Dremel/iMR-style multi-level aggregation tree — receives
// alarms from agents' active monitors, and traps packets whose VLAN stack
// overflowed (suspiciously long paths and routing loops, §4.5).
//
// Every distributed operation is context-aware end to end: the public
// Execute/ExecuteTree/Install/Uninstall/QueryHost entry points have
// *Context variants, the Transport carries the context to the wire, and a
// cancelled or expired context aborts in-flight fan-out waves promptly —
// a slow or dead host can no longer pin down a whole query (§5.2's
// interactivity argument).
//
// Queries are additionally straggler-tolerant: HedgeAfter issues a
// duplicate request to a host that has not answered in time (first
// response wins, the loser is cancelled), PerHostTimeout drops a host
// that exhausts its own budget so the rest of the fleet's data still
// comes back (ExecStats.Partial), and PartialOnDeadline turns a
// whole-query deadline expiry into a merged partial result instead of an
// error. Interior aggregation nodes merge child results as they land
// (query.StreamMerger) rather than barriering on the slowest child.
package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/alarms"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// QueryMeta carries per-execution cost inputs from an agent (used by the
// response-time model, §5.2).
type QueryMeta struct {
	// RecordsScanned is how many TIB records the host touched.
	RecordsScanned int
	// SegmentsScanned/SegmentsPruned report the host store's segment
	// telemetry for this query: partitions walked versus skipped whole by
	// time-bound intersection. They feed ExecStats and the §5.2 cost
	// model's pruned-fraction term.
	SegmentsScanned int
	SegmentsPruned  int
	// Span is the agent-side scan span for this execution, when the
	// transport carried one back (HTTP daemons return it with the
	// response). The controller attaches it under the host's rpc span;
	// when nil it synthesizes a scan span from the counts above.
	Span *obs.Span
}

// Transport moves queries between the controller and host agents. The
// in-process implementation backs simulations; the HTTP implementation in
// internal/rpc backs real deployments. Every method takes the execution's
// context first and must return promptly once it is cancelled — the
// controller relies on that to abort fan-out waves.
type Transport interface {
	Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error)
	Install(ctx context.Context, host types.HostID, q query.Query, period types.Time) (int, error)
	Uninstall(ctx context.Context, host types.HostID, id int) error
}

// BatchReply is one host's answer within a batched multi-host query.
type BatchReply struct {
	Host   types.HostID
	Result query.Result
	Meta   QueryMeta
	Err    error
}

// BatchTransport is an optional Transport extension: QueryMany executes
// one query at several hosts in a single round trip per daemon (the
// batched request path of internal/rpc). The controller routes the leaf
// fan-out of Execute/ExecuteTree through it when available. Replies must
// align with the hosts argument; parallel bounds the transport's internal
// concurrency (<= 0 means unlimited). Cancelling ctx must abort the
// round trip and any server-side fan-out it carries.
type BatchTransport interface {
	Transport
	QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]BatchReply, error)
}

// SerialControl marks transports whose Install/Uninstall must not be
// invoked concurrently — the sim-backed Local transport schedules periodic
// queries on a single-threaded virtual-time event loop. Query fan-out is
// always concurrent; only control-plane installs are serialised.
type SerialControl interface{ SerialControl() }

// Local is the in-process Transport over a set of agents.
type Local struct {
	Agents map[types.HostID]*agent.Agent
}

// Query implements Transport. The context is honoured mid-scan: the
// agent's evaluation loop polls cancellation as it merges TIB shards.
// Segment telemetry is attributed by delta around the execution (queries
// racing on one agent may swap shares — the counts feed modelled stats,
// not correctness).
func (l Local) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	a, ok := l.Agents[host]
	if !ok {
		return query.Result{}, QueryMeta{}, fmt.Errorf("controller: unknown host %v", host)
	}
	sc0, sp0 := a.Store.SegmentStats()
	res, err := a.ExecuteContext(ctx, q)
	if err != nil {
		return query.Result{}, QueryMeta{}, err
	}
	sc1, sp1 := a.Store.SegmentStats()
	return res, QueryMeta{
		RecordsScanned:  a.Store.Len() + a.Mem.Len(),
		SegmentsScanned: int(sc1 - sc0),
		SegmentsPruned:  int(sp1 - sp0),
	}, nil
}

// Install implements Transport.
func (l Local) Install(ctx context.Context, host types.HostID, q query.Query, period types.Time) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	a, ok := l.Agents[host]
	if !ok {
		return 0, fmt.Errorf("controller: unknown host %v", host)
	}
	return a.Install(q, period), nil
}

// Uninstall implements Transport.
func (l Local) Uninstall(ctx context.Context, host types.HostID, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a, ok := l.Agents[host]
	if !ok {
		return fmt.Errorf("controller: unknown host %v", host)
	}
	return a.Uninstall(id)
}

// SerialControl marks the in-process transport's installs as serial: they
// register timers on the shared single-threaded simulator.
func (l Local) SerialControl() {}

// CostModel parameterises the query response-time accounting used by the
// §5.2 experiments. It mirrors the paper's testbed: a management network
// separate from the data network, per-record query execution cost at
// hosts, and per-item aggregation cost wherever results are merged.
type CostModel struct {
	// RTT is the management-network round trip per request (default 1 ms).
	RTT types.Time
	// BandwidthBps is the management link rate (default 1 Gbps).
	BandwidthBps int64
	// ExecBase is the fixed per-query host cost (default 2 ms — process
	// wakeup plus TIB session setup).
	ExecBase types.Time
	// ExecPerRecord is the per-TIB-record scan cost (default 400 ns).
	ExecPerRecord types.Time
	// MergePerItem is the per-result-item aggregation cost at whichever
	// node merges (default 4 µs — the paper's controller-side key-value
	// processing dominates large direct queries, §5.2).
	MergePerItem types.Time
	// PerHostTimeout is the modelled per-host budget (0 = none): a child
	// whose modelled service time exceeds it is charged exactly the
	// budget, because the real controller stops waiting then and drops
	// the straggler (Controller.PerHostTimeout). Hosts that were actually
	// dropped occupy a modelled worker for the budget and contribute no
	// merge cost. When unset but the controller has a wall-clock
	// PerHostTimeout, that value is used (both are nanosecond-granular).
	// Hedging needs no model knob of its own: modelled service times are
	// deterministic, so a duplicate request started HedgeAfter later can
	// never beat the original — hedging only wins against real-world
	// latency variance, which the §5.2 model deliberately excludes.
	PerHostTimeout types.Time
	// Deadline is the modelled per-query response deadline (0 = none).
	// The controller returns whatever has arrived by the deadline, so the
	// modelled response time is capped at it: a deadline of roughly one
	// slow-host round trip keeps a 64-host direct query interactive even
	// when the model would otherwise charge the full serial wall-clock.
	Deadline types.Time
	// SegmentCheck is the per-segment bound-intersection cost of the
	// host's time-partitioned TIB (0 = free). When a host reports segment
	// telemetry, its modelled scan cost charges ExecPerRecord only for
	// the un-pruned fraction of its records plus one SegmentCheck per
	// segment considered — the §5.2 term that makes narrow time windows
	// over large TIBs model as cheap as they now run.
	SegmentCheck types.Time
}

// DefaultCostModel returns the defaults above (no deadline).
func DefaultCostModel() CostModel {
	return CostModel{
		RTT:           types.Millisecond,
		BandwidthBps:  1e9,
		ExecBase:      2 * types.Millisecond,
		ExecPerRecord: 400,
		MergePerItem:  4 * types.Microsecond,
	}
}

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
	// model's Deadline when one is set.
	ResponseTime types.Time
	// WireBytes is the total bytes moved over the management network
	// (queries down plus results up, Figs. 11b/12b).
	WireBytes int64
	// Trace is the finished span tree for this execution: the root
	// query span with per-host rpc spans (hedges, retries and drops
	// labelled), agent scan spans, and interior merge spans under it.
	// Always populated; render with Trace.Render (pathdumpctl -trace).
	Trace *obs.Span
}

// Controller is one PathDump controller instance.
type Controller struct {
	Topo *topology.Topology
	T    Transport
	Cost CostModel

	// Parallelism bounds the number of concurrently outstanding per-host
	// transport requests during Execute/ExecuteTree/Install/Uninstall
	// fan-out (<= 0 means unlimited). The response-time model mirrors the
	// bound: children of an aggregation node are dispatched onto
	// Parallelism modelled workers, so max-over-parallel-children latency
	// degrades gracefully toward sum-latency as the bound tightens.
	Parallelism int

	// PerHostTimeout bounds how long any single host's query — including
	// a hedged duplicate — may take before the host is dropped from the
	// execution and the result is marked partial (0 = wait indefinitely,
	// subject to the whole-query context). Wall-clock; captured once per
	// execution. Setting it is the opt-in: a query with a per-host budget
	// prefers partial data over waiting on a dead host.
	PerHostTimeout time.Duration

	// HedgeAfter issues a duplicate request to a host whose primary has
	// not answered after this long (0 = never hedge). The duplicate stays
	// inside the global Parallelism bound: it races the primary on a free
	// slot when one exists, and otherwise cancels the primary and retries
	// on the slot the host already holds (so hedging cannot starve when
	// stalled primaries hold the whole pool). The first response wins and
	// the loser's context is cancelled. One hedge per host per execution.
	// Hedging is per-host by nature, so when it is enabled leaf fan-out
	// skips the batched transport path.
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
	longFns   []func(types.SwitchID, *netsim.Packet)
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

// RaiseAlarm implements agent.AlarmSink: it routes the alarm through the
// pipeline (bounded history, dedup/suppression, rate limiting, live
// subscribers) and dispatches registered handlers for alarms admitted as
// new entries (the event-driven debugging path of Figure 3). It runs
// under the controller's alarm context (SetAlarmContext).
func (c *Controller) RaiseAlarm(a types.Alarm) {
	c.RaiseAlarmContext(c.alarmContext(), a)
}

// RaiseAlarmContext is RaiseAlarm under a caller context — the HTTP
// /alarm handler passes its request context, so an agent that hung up
// does not have its alarm dispatched to nobody, and a shutting-down
// controller (alarm context cancelled) stops dispatching between
// handlers instead of running the full chain. A repeat folded into an
// existing history entry by the suppression window (or an alarm refused
// by the rate limit) updates the pipeline's counters but does not
// re-trigger handlers or subscribers.
func (c *Controller) RaiseAlarmContext(ctx context.Context, a types.Alarm) {
	if ctx.Err() != nil {
		return
	}
	c.mu.Lock()
	pipe := c.pipe
	c.mu.Unlock()
	if _, admitted := pipe.Publish(a); !admitted {
		return
	}
	// Snapshot the handler chain only for admitted alarms: the suppressed
	// storm path must stay allocation-free.
	c.mu.Lock()
	handlers := append(make([]func(types.Alarm), 0, len(c.handlers)), c.handlers...)
	c.mu.Unlock()
	for _, fn := range handlers {
		if ctx.Err() != nil {
			return
		}
		fn(a)
	}
}

// SetAlarmPolicy replaces the alarm pipeline's configuration — history
// depth, suppression window, rate limit. Call it at wiring time, before
// alarms flow: the previous pipeline's history and subscriptions are
// discarded with it.
func (c *Controller) SetAlarmPolicy(cfg alarms.Config) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pipe = alarms.New(cfg)
}

// AlarmPipeline returns the live pipeline (history queries, stats,
// subscriptions) — the surface the controller HTTP server exposes as
// GET /alarms and /alarms/stream.
func (c *Controller) AlarmPipeline() *alarms.Pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipe
}

// SubscribeAlarms opens a live alarm feed: every alarm admitted from now
// on (after dedup and rate limiting) is delivered in admission order.
// buf bounds the feed's buffer (<= 0 selects the default); a subscriber
// that falls behind loses the newest entries (counted, never blocking
// the alarm path). Close the subscription when done.
func (c *Controller) SubscribeAlarms(buf int) *alarms.Subscription {
	return c.AlarmPipeline().Subscribe(buf)
}

// AlarmHistory queries the bounded alarm history.
func (c *Controller) AlarmHistory(f alarms.Filter) []alarms.Entry {
	return c.AlarmPipeline().History(f)
}

// AlarmStats reports the pipeline's traffic counters.
func (c *Controller) AlarmStats() alarms.Stats {
	return c.AlarmPipeline().Stats()
}

// SetAlarmContext installs the base context under which the alarm path —
// RaiseAlarm, trap handling, loop dispatch — runs. A daemon passes its
// lifetime context so a shutdown stops alarm work promptly; nil restores
// context.Background.
func (c *Controller) SetAlarmContext(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alarmCtx = ctx
}

func (c *Controller) alarmContext() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.alarmCtx != nil {
		return c.alarmCtx
	}
	return context.Background()
}

// OnAlarm registers an alarm handler.
func (c *Controller) OnAlarm(fn func(types.Alarm)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers = append(c.handlers, fn)
}

// Alarms returns the alarms currently in the bounded history, oldest
// first. Unlike the pre-pipeline log this cannot grow without bound: an
// alarm storm keeps only the newest History entries, and suppressed
// repeats fold into one entry (use AlarmHistory for fold counts).
func (c *Controller) Alarms() []types.Alarm {
	hist := c.AlarmPipeline().History(alarms.Filter{})
	out := make([]types.Alarm, len(hist))
	for i := range hist {
		out[i] = hist[i].Alarm
	}
	return out
}

// AlarmsFor filters the history by reason.
func (c *Controller) AlarmsFor(r types.Reason) []types.Alarm {
	hist := c.AlarmPipeline().History(alarms.Filter{Reason: r})
	out := make([]types.Alarm, 0, len(hist))
	for i := range hist {
		out = append(out, hist[i].Alarm)
	}
	return out
}

// QueryHost executes one query at one host (the direct query primitive).
func (c *Controller) QueryHost(host types.HostID, q query.Query) (query.Result, error) {
	return c.QueryHostContext(context.Background(), host, q)
}

// QueryHostContext is QueryHost with a caller-supplied context; a
// cancelled or expired context aborts the request.
func (c *Controller) QueryHostContext(ctx context.Context, host types.HostID, q query.Query) (query.Result, error) {
	res, _, err := c.T.Query(ctx, host, q)
	return res, err
}

// Execute runs a query at every listed host as a direct query — each host
// contacted straight from the controller, results folded at the
// controller — and returns the merged result with modelled cost (§3.2).
func (c *Controller) Execute(hosts []types.HostID, q query.Query) (query.Result, ExecStats, error) {
	return c.ExecuteContext(context.Background(), hosts, q)
}

// ExecuteContext is Execute with a caller-supplied context. Cancellation
// (or an expired deadline) aborts the in-flight fan-out wave promptly:
// pending host requests are skipped, in-flight ones are cut off at the
// transport, and the returned ExecStats reports how many hosts were
// skipped. The error is the context's.
func (c *Controller) ExecuteContext(ctx context.Context, hosts []types.HostID, q query.Query) (query.Result, ExecStats, error) {
	root := &treeNode{children: leafNodes(hosts)}
	return c.run(ctx, root, q)
}

// ExecuteTree runs a query through a multi-level aggregation tree with the
// given per-level fan-outs (e.g. [7,4,4] builds the paper's 4-level tree
// over 112 hosts). Hosts double as interior aggregation nodes.
func (c *Controller) ExecuteTree(hosts []types.HostID, q query.Query, fanouts []int) (query.Result, ExecStats, error) {
	return c.ExecuteTreeContext(context.Background(), hosts, q, fanouts)
}

// ExecuteTreeContext is ExecuteTree with a caller-supplied context (see
// ExecuteContext for cancellation semantics).
func (c *Controller) ExecuteTreeContext(ctx context.Context, hosts []types.HostID, q query.Query, fanouts []int) (query.Result, ExecStats, error) {
	if len(fanouts) == 0 {
		return c.ExecuteContext(ctx, hosts, q)
	}
	root := &treeNode{children: buildLevels(hosts, fanouts)}
	return c.run(ctx, root, q)
}

// Install installs a query at each listed host (§2.1 controller API).
// It returns per-host installation IDs for Uninstall. Installation fans
// out concurrently (bounded by Parallelism) unless the transport declares
// SerialControl. Install is atomic at the fleet level: on the first
// failure every already-installed ID is rolled back (best effort) before
// the error is returned, so no host is left running a query the caller
// never got a handle to.
func (c *Controller) Install(hosts []types.HostID, q query.Query, period types.Time) (map[types.HostID]int, error) {
	return c.InstallContext(context.Background(), hosts, q, period)
}

// InstallContext is Install with a caller-supplied context. The rollback
// of a partial installation runs even when ctx is already cancelled (it
// detaches via context.WithoutCancel): cancellation must not orphan
// installed queries.
func (c *Controller) InstallContext(ctx context.Context, hosts []types.HostID, q query.Query, period types.Time) (map[types.HostID]int, error) {
	out := make(map[types.HostID]int, len(hosts))
	var err error
	if _, serial := c.T.(SerialControl); serial || len(hosts) < 2 {
		for _, h := range hosts {
			if err = ctx.Err(); err != nil {
				break
			}
			var id int
			if id, err = c.T.Install(ctx, h, q, period); err != nil {
				break
			}
			out[h] = id
		}
	} else {
		var mu sync.Mutex
		err = c.forEachHost(ctx, hosts, true, func(ctx context.Context, h types.HostID) error {
			id, err := c.T.Install(ctx, h, q, period)
			if err != nil {
				return err
			}
			mu.Lock()
			out[h] = id
			mu.Unlock()
			return nil
		})
	}
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

// Uninstall removes previously installed queries. Every host is attempted
// (best effort, concurrently unless the transport declares SerialControl);
// the first failure in deterministic host order is returned.
func (c *Controller) Uninstall(ids map[types.HostID]int) error {
	return c.UninstallContext(context.Background(), ids)
}

// UninstallContext is Uninstall with a caller-supplied context.
func (c *Controller) UninstallContext(ctx context.Context, ids map[types.HostID]int) error {
	hosts := make([]types.HostID, 0, len(ids))
	for h := range ids {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	if _, serial := c.T.(SerialControl); serial || len(hosts) < 2 {
		var first error
		for _, h := range hosts {
			if err := ctx.Err(); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if err := c.T.Uninstall(ctx, h, ids[h]); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return c.forEachHost(ctx, hosts, false, func(ctx context.Context, h types.HostID) error {
		return c.T.Uninstall(ctx, h, ids[h])
	})
}

// forEachHost runs fn once per host concurrently under a fresh bounded
// fan-out pool carrying ctx. With abortOnErr the first failure latches and
// pending hosts are skipped (Install); without it every host is attempted
// (Uninstall's best effort) unless ctx is cancelled. The reported error is
// deterministic in host order regardless of goroutine timing.
func (c *Controller) forEachHost(ctx context.Context, hosts []types.HostID, abortOnErr bool, fn func(ctx context.Context, h types.HostID) error) error {
	fo := newFanout(ctx, c.Parallelism)
	errs := make([]error, len(hosts))
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

// treeNode is one aggregation-tree position; the root has no host.
type treeNode struct {
	host     types.HostID
	isHost   bool
	children []*treeNode
}

func leafNodes(hosts []types.HostID) []*treeNode {
	out := make([]*treeNode, len(hosts))
	for i, h := range hosts {
		out[i] = &treeNode{host: h, isHost: true}
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
	out := make([]*treeNode, 0, n)
	for g := 0; g < n; g++ {
		lo := g * len(hosts) / n
		hi := (g + 1) * len(hosts) / n
		group := hosts[lo:hi]
		if len(group) == 0 {
			continue
		}
		node := &treeNode{host: group[0], isHost: true}
		node.children = buildLevels(group[1:], fanouts[1:])
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
	fo.retryAttempts = c.RetryAttempts
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

// modelHostExec is the modelled execution time at one host. Without
// segment telemetry it is the classic §5.2 linear scan charge. With it,
// only the un-pruned fraction of the host's records is charged at
// ExecPerRecord, plus one SegmentCheck per partition considered — the
// cost-model mirror of whole-segment time pruning.
func (c *Controller) modelHostExec(meta QueryMeta) types.Time {
	t := c.Cost.ExecBase
	records := types.Time(meta.RecordsScanned)
	if total := meta.SegmentsScanned + meta.SegmentsPruned; total > 0 {
		records = records * types.Time(meta.SegmentsScanned) / types.Time(total)
		t += types.Time(total) * c.Cost.SegmentCheck
	}
	return t + records*c.Cost.ExecPerRecord
}

// modelPerHostCap is the modelled time charged for a host the controller
// stopped waiting on: the cost model's own PerHostTimeout when set,
// otherwise the wall-clock budget mapped onto modelled nanoseconds (both
// are nanosecond-granular), otherwise zero.
func (c *Controller) modelPerHostCap() types.Time {
	if c.Cost.PerHostTimeout > 0 {
		return c.Cost.PerHostTimeout
	}
	if c.PerHostTimeout > 0 {
		return types.Time(c.PerHostTimeout.Nanoseconds())
	}
	return 0
}

// run executes the query over the tree, merging bottom-up, and computes
// the modelled response time. At each node children are dispatched onto
// goroutines (at most Parallelism transport requests outstanding across
// the whole tree) and merged as they land: child i folds in the moment
// children 0..i-1 have folded and i has arrived, so merge work overlaps
// waiting on stragglers while the output stays identical to an
// index-order merge. The model mirrors both halves:
//
//	avail(child) = start + RTT + T(child) + xfer   (greedy schedule over
//	                                                Parallelism workers)
//	mergeEnd(i)  = max(mergeEnd(i-1), avail(i)) + items(i)·MergePerItem
//	T(node)      = max(execLocal, max avail, mergeEnd(last))
//
// Wire bytes count the query going down and each (partial) result coming
// up. On failure — including ctx cancellation — the stats still report
// how many hosts had answered versus how many were skipped, so callers
// can tell a near-complete cancelled query from one cut off at the start.
// A successful execution that is missing dropped stragglers' data sets
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
	out := c.runNode(n, q, int64(len(qBytes)), fo, root)
	stats := ExecStats{Hedged: int(fo.hedged.Load()), Retried: int(fo.retried.Load()), Trace: root}
	m.hedged.Add(uint64(stats.Hedged))
	m.retried.Add(uint64(stats.Retried))
	if out.err != nil {
		stats.Hosts = int(fo.queried.Load())
		stats.Skipped = total - stats.Hosts
		root.SetAttr("error", out.err.Error())
		return query.Result{}, stats, out.err
	}
	t := out.t
	if d := c.Cost.Deadline; d > 0 && t > d {
		// The modelled controller hands back whatever has arrived once the
		// per-query deadline fires; stragglers past it are simply not
		// waited for, so the modelled response time caps at the deadline.
		t = d
	}
	stats.Hosts = out.hosts
	stats.Skipped = total - out.hosts
	stats.Partial = stats.Skipped > 0
	stats.ResponseTime = t
	stats.WireBytes = out.wire
	stats.SegmentsScanned = out.segScanned
	stats.SegmentsPruned = out.segPruned
	m.hostsQueried.Add(uint64(stats.Hosts))
	if stats.Partial {
		m.partial.Inc()
	}
	return out.res, stats, nil
}

// childOut is one child subtree's outcome, slotted by child index so the
// merge remains deterministic regardless of goroutine completion order.
// err==nil with hosts==0 marks a dropped straggler (or a subtree whose
// every host was dropped): it contributes nothing to the merge.
// segScanned/segPruned total the subtree's TIB partition telemetry.
type childOut struct {
	res                   query.Result
	t                     types.Time
	wire                  int64
	hosts                 int
	segScanned, segPruned int
	err                   error
}

func (c *Controller) runNode(n *treeNode, q query.Query, qWire int64, fo *fanout, sp *obs.Span) childOut {
	nc := len(n.children)
	outs := make([]childOut, nc)
	done := make(chan int, nc)

	// Leaf children can ride one batched transport round; subtrees (and
	// leaves on plain transports) recurse on their own goroutines. With
	// hedging on, leaves stay per-host: a hedge duplicates one host's
	// request, not a whole daemon's round.
	var batchIdx []int
	if bt, ok := c.T.(BatchTransport); ok && fo.hedgeAfter <= 0 {
		for i, ch := range n.children {
			if ch.isHost && len(ch.children) == 0 {
				batchIdx = append(batchIdx, i)
			}
		}
		if len(batchIdx) >= 2 {
			go c.runBatch(bt, n, q, batchIdx, outs, fo, done, sp)
		} else {
			batchIdx = nil
		}
	}
	inBatch := make([]bool, nc)
	for _, i := range batchIdx {
		inBatch[i] = true
	}
	for i, ch := range n.children {
		if inBatch[i] {
			continue
		}
		go func(i int, ch *treeNode) {
			if len(ch.children) == 0 {
				// Leaves hang their rpc span directly off the parent.
				outs[i] = c.runNode(ch, q, qWire, fo, sp)
			} else {
				// Interior aggregation nodes get their own span so the
				// tree shape survives into the trace. It is finished
				// before done is signalled: the parent may hand the span
				// tree to its caller the moment its last child reports.
				csp := sp.StartChild("node")
				csp.SetAttr("host", fmt.Sprintf("%v", ch.host))
				outs[i] = c.runNode(ch, q, qWire, fo, csp)
				csp.Finish()
			}
			done <- i
		}(i, ch)
	}

	// The node's own host executes on this goroutine, concurrently with
	// its children (an aggregation host scans its TIB while waiting); its
	// result is the merge base.
	var out childOut
	out.res.Op = q.Op
	var (
		localT   types.Time
		localErr error
	)
	if n.isHost {
		r, meta, err := c.queryHost(n.host, q, fo, sp)
		switch {
		case err == nil:
			out.res = r
			out.res.Op = q.Op
			localT = c.modelHostExec(meta)
			out.hosts = 1
			out.segScanned += meta.SegmentsScanned
			out.segPruned += meta.SegmentsPruned
		case c.dropHost(fo, err):
			// Straggler dropped: the node aggregates without its own data,
			// having waited (in the model's view) the per-host budget.
			localT = c.modelPerHostCap()
		default:
			fo.abort()
			localErr = err
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
	sm := query.NewStreamMerger(q, &out.res, nc)
	errs := make([]error, 1, nc+1)
	errs[0] = localErr
	for drained := 0; drained < nc; drained++ {
		i := <-done
		o := &outs[i]
		if o.err != nil {
			errs = append(errs, o.err)
			sm.Add(i, nil)
			continue
		}
		if o.hosts == 0 {
			// Dropped straggler(s): nothing arrived to merge.
			sm.Add(i, nil)
			continue
		}
		sm.Add(i, &o.res)
	}
	if q.Op == query.OpRecords {
		// Each child's record slice was copied into the merged result;
		// recycle the pooled buffers the transports drew them from.
		for i := range outs {
			query.PutRecordBuf(outs[i].res.Records)
			outs[i].res.Records = nil
		}
	}
	msp.Finish()
	if err := firstError(errs); err != nil {
		return childOut{res: out.res, err: err}
	}

	// Modelled schedule: children are dispatched in index order onto
	// Parallelism workers (nil slice = unlimited, start always 0). The
	// bound was captured at execution start so model and semaphore agree.
	// The merge frontier mirrors the streaming merge above: child i's
	// merge starts once it has arrived and children before it merged.
	var workers []types.Time
	if fo.parallelism > 0 {
		workers = make([]types.Time, fo.parallelism)
	}
	perHostCap := c.modelPerHostCap()
	childT := localT
	mergeEnd := localT
	for i := range outs {
		o := &outs[i]
		size := int64(o.res.WireSize())
		xfer := types.Time((size + qWire) * 8 * int64(types.Second) / c.Cost.BandwidthBps)
		service := c.Cost.RTT + o.t + xfer
		leaf := n.children[i].isHost && len(n.children[i].children) == 0
		if leaf && perHostCap > 0 && service > perHostCap {
			// The budget bounds individual host requests, not whole
			// subtrees: a leaf's modelled service caps at it because the
			// real controller stops waiting then — the host either
			// answered within the budget or was dropped at it.
			service = perHostCap
		}
		var start types.Time
		if workers != nil {
			wi := 0
			for j := range workers {
				if workers[j] < workers[wi] {
					wi = j
				}
			}
			start = workers[wi]
			workers[wi] = start + service
		}
		avail := start + service
		if avail > childT {
			childT = avail
		}
		out.wire += o.wire + size + qWire
		out.hosts += o.hosts
		out.segScanned += o.segScanned
		out.segPruned += o.segPruned
		if o.hosts > 0 {
			if avail > mergeEnd {
				mergeEnd = avail
			}
			mergeEnd += types.Time(itemCount(&o.res)) * c.Cost.MergePerItem
		}
	}
	out.t = mergeEnd
	if childT > out.t {
		out.t = childT
	}
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
	if err := fo.acquire(); err != nil {
		for _, i := range batchIdx {
			c.finishBatchSlot(&outs[i], err, fo)
		}
		return
	}
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
	batchCtx := fo.ctx
	if fo.perHostTimeout > 0 {
		var cancel context.CancelFunc
		batchCtx, cancel = context.WithTimeout(fo.ctx, fo.perHostTimeout)
		defer cancel()
	}
	replies, err := bt.QueryMany(batchCtx, hosts, q, parallel)
	// A whole-round transport failure is retried like a per-host one: the
	// round trip is this path's request unit.
	retries := 0
	for attempt := 0; attempt < fo.retryAttempts && retryableTransportError(err); attempt++ {
		if !sleepCtx(batchCtx, fo.retryDelay(attempt)) || fo.err() != nil {
			break
		}
		fo.retried.Add(1)
		retries++
		replies, err = bt.QueryMany(batchCtx, hosts, q, parallel)
	}
	if retries > 0 {
		bsp.SetInt("retried", int64(retries))
	}
	if err == nil && len(replies) != len(hosts) {
		err = fmt.Errorf("controller: batch query returned %d replies for %d hosts", len(replies), len(hosts))
	}
	if err != nil {
		for _, i := range batchIdx {
			c.finishBatchSlot(&outs[i], err, fo)
		}
		return
	}
	for j, i := range batchIdx {
		rep := replies[j]
		if rep.Err != nil {
			c.finishBatchSlot(&outs[i], rep.Err, fo)
			continue
		}
		fo.queried.Add(1)
		hsp := bsp.StartChild("rpc")
		hsp.SetAttr("host", fmt.Sprintf("%v", rep.Host))
		attachScan(hsp, rep.Meta)
		hsp.Finish()
		outs[i] = childOut{
			res:        rep.Result,
			t:          c.modelHostExec(rep.Meta),
			hosts:      1,
			segScanned: rep.Meta.SegmentsScanned,
			segPruned:  rep.Meta.SegmentsPruned,
		}
	}
}

// finishBatchSlot classifies one batched host's failure: a dropped
// straggler keeps its zero childOut (no result, no error), anything else
// records the error and aborts the fan-out.
func (c *Controller) finishBatchSlot(o *childOut, err error, fo *fanout) {
	if c.dropHost(fo, err) {
		*o = childOut{t: c.modelPerHostCap()}
		return
	}
	fo.abort()
	o.err = err
}

// queryHost issues one host's query through the bounded fan-out pool
// under the execution's context, applying the per-host budget and — when
// hedging is on — racing a duplicate request against a slow primary.
// Errors are classified by the caller (dropHost): failing versus dropping
// a host is a policy decision made where the result slot lives.
func (c *Controller) queryHost(host types.HostID, q query.Query, fo *fanout, sp *obs.Span) (query.Result, QueryMeta, error) {
	if err := fo.acquire(); err != nil {
		return query.Result{}, QueryMeta{}, err
	}
	defer fo.release()
	rpc := sp.StartChild("rpc")
	rpc.SetAttr("host", fmt.Sprintf("%v", host))
	defer rpc.Finish()

	hostCtx := fo.ctx
	if fo.perHostTimeout > 0 {
		var cancel context.CancelFunc
		hostCtx, cancel = context.WithTimeout(fo.ctx, fo.perHostTimeout)
		defer cancel()
	}
	if fo.hedgeAfter <= 0 {
		r, meta, err := c.T.Query(hostCtx, host, q)
		// Bounded retry on real transport errors (never on context expiry,
		// aborts, or authoritative HTTP answers). The host keeps its pool
		// slot across the backoff: it is still outstanding work.
		retries := 0
		for attempt := 0; attempt < fo.retryAttempts && retryableTransportError(err); attempt++ {
			if !sleepCtx(hostCtx, fo.retryDelay(attempt)) || fo.err() != nil {
				break
			}
			fo.retried.Add(1)
			retries++
			r, meta, err = c.T.Query(hostCtx, host, q)
		}
		if retries > 0 {
			rpc.SetInt("retried", int64(retries))
		}
		if err == nil {
			fo.queried.Add(1)
			attachScan(rpc, meta)
		} else if c.dropHost(fo, err) {
			rpc.SetAttr("dropped", "true")
		}
		return r, meta, err
	}
	r, meta, err := c.queryHedged(hostCtx, host, q, fo, rpc)
	if err == nil {
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
			hsp.SetAttr("host", fmt.Sprintf("%v", host))
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
				fo.queried.Add(1)
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

// itemCount estimates the number of key-value items merged from a partial
// result (the unit of aggregation cost). Histograms count their occupied
// bins: zero bins are never materialised as key-value pairs.
func itemCount(r *query.Result) int {
	n := len(r.Flows) + len(r.Paths) + len(r.FlowIDs) + len(r.Top) +
		len(r.Violations) + len(r.Matrix) + len(r.Records)
	for _, h := range r.Hists {
		for _, b := range h.Bins {
			if b != 0 {
				n++
			}
		}
	}
	if n == 0 {
		n = 1 // scalar results still cost one update
	}
	return n
}
