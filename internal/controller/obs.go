package controller

import (
	"pathdump/internal/obs"
)

// controllerMetrics holds the controller-plane metric handles. All
// fields are nil-safe: a controller whose RegisterMetrics was never
// called pays only a nil check per query.
type controllerMetrics struct {
	queries      *obs.Counter
	queryDur     *obs.Histogram
	fanoutHosts  *obs.Histogram
	hostsQueried *obs.Counter
	hedged       *obs.Counter
	retried      *obs.Counter
	partial      *obs.Counter
	inflight     *obs.Gauge
}

// fanoutBuckets sizes the per-execution fan-out breadth histogram:
// powers of two from a single host up to a 4096-host wave.
var fanoutBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// RegisterMetrics registers the controller-plane metrics — query
// counts and latency, fan-out breadth and in-flight depth, hedge/
// retry/partial tallies, alarm-pipeline traffic, slow-query totals —
// on r. Call it once at wiring time, before queries flow; passing a
// nil registry leaves the controller uninstrumented at zero cost.
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	m := &controllerMetrics{
		queries:      r.Counter("pathdump_controller_queries_total", "Distributed query executions started."),
		queryDur:     r.Histogram("pathdump_controller_query_seconds", "Wall-clock latency of distributed query executions.", obs.LatencyBuckets),
		fanoutHosts:  r.Histogram("pathdump_controller_fanout_hosts", "Hosts addressed per query execution (fan-out breadth).", fanoutBuckets),
		hostsQueried: r.Counter("pathdump_controller_hosts_queried_total", "Per-host answers successfully folded into query results."),
		hedged:       r.Counter("pathdump_controller_hedged_total", "Duplicate (hedged) per-host requests issued."),
		retried:      r.Counter("pathdump_controller_retried_total", "Per-host or batched-round requests re-issued after transport errors."),
		partial:      r.Counter("pathdump_controller_partial_total", "Successful executions returned with some hosts' data missing."),
		inflight:     r.Gauge("pathdump_controller_inflight_requests", "Transport requests currently outstanding (fan-out depth)."),
	}
	r.GaugeFunc("pathdump_controller_slow_queries", "Queries that crossed SlowQueryThreshold (cumulative).",
		func() float64 { return float64(c.slow.Total()) })
	r.GaugeFunc("pathdump_alarms_received", "Alarms offered to the pipeline (cumulative).",
		func() float64 { return float64(c.AlarmStats().Received) })
	r.GaugeFunc("pathdump_alarms_admitted", "Alarms admitted as new history entries (cumulative).",
		func() float64 { return float64(c.AlarmStats().Admitted) })
	r.GaugeFunc("pathdump_alarms_suppressed", "Alarms folded into an existing entry by the suppression window (cumulative).",
		func() float64 { return float64(c.AlarmStats().Suppressed) })
	r.GaugeFunc("pathdump_alarms_rate_limited", "Alarms refused by the rate limiter (cumulative).",
		func() float64 { return float64(c.AlarmStats().RateLimited) })
	r.GaugeFunc("pathdump_alarms_stream_dropped", "Alarm feed entries dropped on lagging subscribers (cumulative).",
		func() float64 { return float64(c.AlarmStats().StreamDropped) })
	r.GaugeFunc("pathdump_alarms_evicted", "Alarm history entries evicted by the bounded ring (cumulative).",
		func() float64 { return float64(c.AlarmStats().Evicted) })
	r.GaugeFunc("pathdump_alarms_subscribers", "Live alarm subscriptions (SSE streams and in-process feeds).",
		func() float64 { return float64(c.AlarmStats().Subscribers) })
	c.mu.Lock()
	c.om = m
	c.mu.Unlock()
}

// noMetrics backs uninstrumented controllers: its handles are all nil,
// so every record operation no-ops.
var noMetrics controllerMetrics

// metrics returns the registered metric set, or the shared no-op set
// when the controller is uninstrumented.
func (c *Controller) metrics() *controllerMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.om == nil {
		return &noMetrics
	}
	return c.om
}

// SlowQueries returns the retained slow-query log entries, newest
// first — executions whose wall-clock crossed SlowQueryThreshold,
// each with its trace ID and full span tree.
func (c *Controller) SlowQueries() []obs.SlowQuery {
	return c.slow.Entries()
}

// SlowLog exposes the controller's bounded slow-query log so daemons
// can serve it (rpc.ServerObs.SlowLog → GET /slowlog).
func (c *Controller) SlowLog() *obs.SlowLog {
	return c.slow
}

// attachScan hangs a host's scan span under its rpc span — direct,
// hedged, or derived in a batched round — built from the reply's
// telemetry, which the host measured whatever the reply's shape. The
// span lasts the host's measured scan time. cold_loads is set only when
// the scan thawed something, so the usual three attributes stay inline.
func attachScan(rpc *obs.Span, meta QueryMeta) {
	if rpc == nil {
		return
	}
	scan := rpc.StartChild("scan")
	scan.SetInt("records", int64(meta.RecordsScanned))
	scan.SetInt("segments_scanned", int64(meta.SegmentsScanned))
	scan.SetInt("segments_pruned", int64(meta.SegmentsPruned))
	if meta.ColdLoads != 0 {
		scan.SetInt("cold_loads", int64(meta.ColdLoads))
	}
	scan.SetDur(meta.ScanTime)
}
