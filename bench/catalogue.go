// Package bench is pathdumpbench: the end-to-end + per-layer performance
// ledger of this repository. It boots the real serving stack in one
// process over loopback HTTP, drives it with four named workloads, checks
// every answer against a naive oracle, and reports the metrics listed in
// BENCHMARK.json. It measures every layer from outside, by timing calls
// into exported functions; it instruments nothing. See README.md.
package bench

// MetricDef is one catalogue entry. The catalogue is the single source of
// metric names, units, directions and bounds: BENCHMARK.json mirrors it
// and the smoke test fails on any drift between the two.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by. On a per-layer metric it is the bound the issue tabled for
	// it as an end-to-end metric, before it was demoted: the A/A tool sets
	// the metric's measured spread against it. Per-layer metrics gate nothing.
	Bound float64
}

// WorkloadDef names one workload and why it exists.
type WorkloadDef struct {
	Name string
	Why  string
}

// Workload names.
const (
	IngestSteady = "ingest-steady"
	QueryFanout  = "query-fanout"
	QueryScan    = "query-scan"
	Live         = "live"
)

// Workloads lists the four workloads in the order a full pass runs them.
var Workloads = []WorkloadDef{
	{IngestSteady, "write path alone at its retention bound: datapath, trajectory memory, TIB add/seal/evict/compact; rpc, wire and controller idle"},
	{QueryFanout, "small replies x 128 hosts over loopback HTTP: request encode, round trips, batching, scheduling and merge dominate; scans are a sliver"},
	{QueryScan, "4 hosts x big segmented stores with a cold tier: scan, prune, thaw, chunk encode/decode and streamed merge dominate; fan-out idle"},
	{Live, "reads beside writes on the same stores under an open-loop ingest pump, plus the host alarm to SSE subscriber path"},
}

// EndToEnd lists the bounded metrics. Every run reports every one of
// them, never as zero (the builder's contract), so the list holds only
// what exists on all four workloads and, by the issue's rule — a metric
// that cannot hold half its bound is demoted, never given a wider one —
// only what repeats on this machine: the count metrics, which machine
// speed cannot move, at the bounds the issue tabled. setup_s is the one
// time metric the contract does not let go; it carries the contract's
// largest bound (see README.md, "Bounds").
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"allocs_per_op", "1", "lower", 0.03},
}

// PerLayer lists the unbounded metrics of the traced run. A metric that
// does not apply to a workload reads 0 there.
var PerLayer = []MetricDef{
	// The issue's other end-to-end metrics, measured with tracing off
	// (in a traced run: over its untraced first third). The time
	// metrics spread up to 17-30 % between runs of the same code on this
	// machine (AA.md) and are demoted; the rest exist on fewer than four
	// workloads, or read 0, which the contract rules out for a bounded
	// metric.
	{"e2e.throughput_per_s", "1/s", "higher", 0.10},
	{"e2e.lat_p50_us", "us", "lower", 0.10},
	{"e2e.lat_p99_us", "us", "lower", 0.15},
	{"e2e.wire_kb_per_op", "KB", "lower", 0.01},
	{"e2e.failed_share", "1", "lower", 0},
	{"live.alarm_lat_p50_us", "us", "lower", 0.10},
	{"live.alarm_lat_p99_us", "us", "lower", 0.15},
	{"live.ingest_lag_p99_us", "us", "lower", 0.15},
	{"live.alarms_delivered", "count", "higher", 0},
	// agent
	{"agent.receive_data_ns", "ns", "lower", 0},
	{"agent.receive_fin_ns", "ns", "lower", 0},
	{"agent.self_ns_per_pkt", "ns", "lower", 0},
	{"agent.records_per_pkt", "1", "lower", 0},
	{"agent.execute_us", "us", "lower", 0},
	// tib, write side
	{"tib.mem_update_ns", "ns", "lower", 0},
	{"tib.mem_evictflow_ns", "ns", "lower", 0},
	{"tib.cache_hit_rate", "1", "higher", 0},
	{"tib.add_ns_per_record", "ns", "lower", 0},
	{"tib.evict_ns_per_record", "ns", "lower", 0},
	{"tib.compact_ns_per_record", "ns", "lower", 0},
	{"tib.compactions", "count", "lower", 0},
	{"tib.seals", "count", "lower", 0},
	{"tib.bytes_per_record", "B", "lower", 0},
	// tib, read side
	{"tib.scan_ns_per_record", "ns", "lower", 0},
	{"tib.segments_pruned_share", "1", "higher", 0},
	{"tib.cold_loads_per_op", "1", "lower", 0},
	{"tib.cold_load_us", "us", "lower", 0},
	{"tib.segments", "count", "lower", 0},
	// query
	{"query.exec_topk_us", "us", "lower", 0},
	{"query.exec_records_us", "us", "lower", 0},
	{"query.exec_flows_us", "us", "lower", 0},
	{"query.records_scanned_per_result", "1", "lower", 0},
	{"query.merge_us", "us", "lower", 0},
	{"query.merge_children", "count", "lower", 0},
	// wire
	{"wire.req_encode_ns", "ns", "lower", 0},
	{"wire.req_bytes", "B", "lower", 0},
	{"wire.resp_encode_ns_per_record", "ns", "lower", 0},
	{"wire.resp_decode_ns_per_record", "ns", "lower", 0},
	{"wire.bytes_per_record", "B", "lower", 0},
	{"wire.agg_encode_us", "us", "lower", 0},
	{"wire.agg_decode_us", "us", "lower", 0},
	// rpc
	{"rpc.roundtrip_us", "us", "lower", 0},
	{"rpc.batch_roundtrip_us", "us", "lower", 0},
	{"rpc.self_us", "us", "lower", 0},
	{"rpc.alarm_post_us", "us", "lower", 0},
	{"rpc.sse_deliver_us", "us", "lower", 0},
	{"rpc.errors", "count", "lower", 0},
	// controller
	{"controller.exec_http_us", "us", "lower", 0},
	{"controller.exec_local_us", "us", "lower", 0},
	{"controller.self_us", "us", "lower", 0},
	{"controller.hedged", "count", "lower", 0},
	{"controller.retried", "count", "lower", 0},
	{"controller.partial", "count", "lower", 0},
	// alarms
	{"alarms.publish_ns", "ns", "lower", 0},
	{"alarms.admitted", "count", "higher", 0},
	{"alarms.suppressed", "count", "lower", 0},
	{"alarms.stream_drops", "count", "lower", 0},
	// runtime
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},
	// layer-share report: each layer's self-time share of op latency
	{"share.agent", "1", "lower", 0},
	{"share.tib", "1", "lower", 0},
	{"share.query", "1", "lower", 0},
	{"share.wire", "1", "lower", 0},
	{"share.rpc", "1", "lower", 0},
	{"share.controller", "1", "lower", 0},
	{"share.alarms", "1", "lower", 0},
	{"share.sum", "1", "lower", 0},
	// the harness itself
	{"bench.trace_overhead_share", "1", "lower", 0},
	{"bench.ladder_samples", "count", "higher", 0},
}

// layers is the layer-share report's column order.
var layers = []string{"agent", "tib", "query", "wire", "rpc", "controller", "alarms"}
