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
// from. Every field is measured at the host, whatever the reply's shape
// (Evaluate).
type QueryMeta = query.Meta

// Host is the evaluation surface of one host: the paper's execute (Table
// 1) plus the store counters its cost is measured by. *agent.Agent
// satisfies it; the daemons serve it (rpc.Target) and Local calls it in
// process.
type Host interface {
	// ExecuteContext evaluates q under the request context: a
	// disconnected client or expired deadline aborts the scan and
	// surfaces as the context's error. An op this host can never
	// serve is an error wrapping query.ErrUnsupported, not an empty
	// result.
	ExecuteContext(ctx context.Context, q query.Query) (query.Result, error)
	// StreamRecords hands every record matching q to fn as the scan
	// visits it, without materialising the reply. fn must not retain
	// the pointer. The scan polls ctx and returns its error.
	StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error
	// TIBSize is the number of queryable records.
	TIBSize() int
	// SegmentStats is the store's cumulative count of segments scanned
	// versus pruned by time bounds; Evaluate attributes per-query deltas.
	SegmentStats() (scanned, pruned uint64)
	// ColdLoads is the store's cumulative count of cold-segment demand
	// loads, attributed per query the same way.
	ColdLoads() uint64
}

// Evaluate runs q on h under ctx and measures what that cost the host —
// the records resident, the segments scanned and pruned, the cold
// segments loaded and the wall time — the same way for every reply shape
// and every transport: the daemons' buffered, streamed and batched
// replies and the in-process Local alike. With a nil each the result is
// materialised; otherwise every matching record is handed to each as the
// scan visits it (Host.StreamRecords) and the result is empty. Only
// counters are read, by delta around the evaluation: queries racing on
// one host may swap shares — the counts feed telemetry and modelled
// stats, not correctness.
func Evaluate(ctx context.Context, h Host, q query.Query, each func(*types.Record)) (res query.Result, m query.Meta, err error) {
	if err = ctx.Err(); err != nil {
		return
	}
	sc0, sp0 := h.SegmentStats()
	cold0 := h.ColdLoads()
	start := time.Now()
	if each != nil {
		err = h.StreamRecords(ctx, q, each)
	} else {
		res, err = h.ExecuteContext(ctx, q)
	}
	if err != nil {
		return query.Result{}, query.Meta{}, err
	}
	sc1, sp1 := h.SegmentStats()
	return res, query.Meta{
		RecordsScanned:  h.TIBSize(),
		SegmentsScanned: int(sc1 - sc0),
		SegmentsPruned:  int(sp1 - sp0),
		ColdLoads:       int(h.ColdLoads() - cold0),
		ScanTime:        time.Since(start),
	}, nil
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
// round trip and any server-side fan-out it carries. The reply array is
// the controller's once QueryMany returns: when the execution has folded
// every reply, it clears the slots and hands the array to the pool
// GetBatchReplies draws from, whichever transport made it.
type BatchTransport interface {
	Transport
	QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]BatchReply, error)
}

// batchReplies recycles the reply arrays of batched rounds: a 128-host
// round's array is 128 slots of a few hundred bytes each, dead once the
// execution's fold is done with it.
var batchReplies query.BufPool[BatchReply]

// GetBatchReplies returns n zero reply slots for a QueryMany to fill: a
// recycled array, or a fresh one.
func GetBatchReplies(n int) []BatchReply { return batchReplies.Get(n)[:n] }

// putBatchReplies clears a folded round's array, up to its capacity — an
// array from another transport may hold something past its length — and
// hands it to the pool.
func putBatchReplies(replies []BatchReply) { batchReplies.Put(replies[:cap(replies)]) }

// SerialControl marks transports whose Install/Uninstall must not be
// invoked concurrently — the sim-backed Local transport schedules periodic
// queries on a single-threaded virtual-time event loop. Query fan-out is
// always concurrent; only control-plane installs are serialised.
type SerialControl interface{ SerialControl() }

// Local is the in-process Transport over a set of agents.
type Local struct {
	Agents map[types.HostID]*agent.Agent
}

// Query implements Transport: the agent evaluates q as a daemon would
// (Evaluate). The context is honoured mid-scan: the agent's evaluation
// loop polls cancellation as it merges TIB shards.
func (l Local) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	a, ok := l.Agents[host]
	if !ok {
		return query.Result{}, QueryMeta{}, fmt.Errorf("controller: unknown host %v", host)
	}
	return Evaluate(ctx, a, q, nil)
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
	id := a.Install(q, period)
	if id == 0 {
		return 0, fmt.Errorf("controller: host %v runs no installed %q query", host, q.Op)
	}
	return id, nil
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
