package controller

import (
	"context"
	"fmt"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// QueryMeta carries per-execution cost inputs from an agent (used by the
// response-time model, §5.2) and the telemetry its scan span is built
// from. Every field is measured at the host, whatever the reply's shape.
type QueryMeta struct {
	// RecordsScanned is how many TIB records the host touched.
	RecordsScanned int
	// SegmentsScanned/SegmentsPruned report the host store's segment
	// telemetry for this query: partitions walked versus skipped whole by
	// time-bound intersection. They feed ExecStats and the §5.2 cost
	// model's pruned-fraction term.
	SegmentsScanned int
	SegmentsPruned  int
	// ColdLoads is how many cold segments the evaluation demand-loaded,
	// and ScanTime its wall time at the host.
	ColdLoads int
	ScanTime  time.Duration
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
// batched request path of internal/rpc). The controller fetches every host
// of an execution, direct or tree, through one call when available. Replies must
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
// The evaluation is measured as a daemon measures it: its wall time, and
// the store's segment and cold-load counters by delta around it (queries
// racing on one agent may swap shares — the counts feed modelled stats,
// not correctness).
func (l Local) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	a, ok := l.Agents[host]
	if !ok {
		return query.Result{}, QueryMeta{}, fmt.Errorf("controller: unknown host %v", host)
	}
	sc0, sp0 := a.Store.SegmentStats()
	cold0 := a.Store.ColdLoads()
	start := time.Now()
	res, err := a.ExecuteContext(ctx, q)
	if err != nil {
		return query.Result{}, QueryMeta{}, err
	}
	sc1, sp1 := a.Store.SegmentStats()
	return res, QueryMeta{
		RecordsScanned:  a.TIBSize(),
		SegmentsScanned: int(sc1 - sc0),
		SegmentsPruned:  int(sp1 - sp0),
		ColdLoads:       int(a.Store.ColdLoads() - cold0),
		ScanTime:        time.Since(start),
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
