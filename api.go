package pathdump

import (
	"context"
	"fmt"
	"time"

	"pathdump/internal/apps"
	"pathdump/internal/query"
)

// This file exposes the paper's Table-1 interface verbatim.
//
// Host API — each host answers for its "local" flows (flows whose dstIP
// is this host):
//
//	getFlows(linkID, timeRange)
//	getPaths(flowID, linkID, timeRange)
//	getCount(Flow, timeRange)
//	getDuration(Flow, timeRange)
//	getPoorTCPFlows(threshold)
//	Alarm(flowID, reason, paths)
//
// Controller API:
//
//	execute(List⟨HostID⟩, Query)
//	install(List⟨HostID⟩, Query, Period)
//	uninstall(List⟨HostID⟩, Query)

// GetFlows returns the flows (with their paths) that traversed linkID
// during the time range, as recorded at the given host.
func (c *Cluster) GetFlows(host HostID, link LinkID, tr TimeRange) []Flow {
	a := c.Agents[host]
	if a == nil {
		return nil
	}
	res, _ := a.ExecuteContext(context.Background(), Query{Op: OpFlows, Link: link, Range: tr})
	return res.Flows
}

// GetPaths returns the paths flowID took through linkID during the range,
// as recorded at the given host.
func (c *Cluster) GetPaths(host HostID, f FlowID, link LinkID, tr TimeRange) []Path {
	a := c.Agents[host]
	if a == nil {
		return nil
	}
	res, _ := a.ExecuteContext(context.Background(), Query{Op: OpPaths, Flow: f, Link: link, Range: tr})
	return res.Paths
}

// GetCount returns packet and byte counts of a ⟨flowID, path⟩ pair within
// the range (nil path aggregates every path of the flow).
func (c *Cluster) GetCount(host HostID, f Flow, tr TimeRange) (bytes, pkts uint64) {
	a := c.Agents[host]
	if a == nil {
		return 0, 0
	}
	res, _ := a.ExecuteContext(context.Background(), Query{Op: OpCount, Flow: f.ID, Path: f.Path, Range: tr})
	return res.Bytes, res.Pkts
}

// GetDuration returns the active duration of a ⟨flowID, path⟩ pair within
// the range.
func (c *Cluster) GetDuration(host HostID, f Flow, tr TimeRange) Time {
	a := c.Agents[host]
	if a == nil {
		return 0
	}
	res, _ := a.ExecuteContext(context.Background(), Query{Op: OpDuration, Flow: f.ID, Path: f.Path, Range: tr})
	return res.Duration
}

// GetPoorTCPFlows returns the host's TCP flows whose consecutive
// retransmissions reached the threshold.
func (c *Cluster) GetPoorTCPFlows(host HostID, threshold int) []FlowID {
	a := c.Agents[host]
	if a == nil {
		return nil
	}
	return a.PoorTCPFlows(threshold)
}

// RaiseAlarm lets applications inject an alarm into the controller
// (agents call this internally via their sink).
func (c *Cluster) RaiseAlarm(a Alarm) { c.Ctrl.RaiseAlarm(a) }

// ExecuteContext runs a query at each listed host as a direct query and
// merges the results at the controller. Cancellation (or an expired
// deadline, via context.WithTimeout) aborts the in-flight fan-out
// promptly — a slow or dead host cannot pin the whole query —
// and ExecStats.Skipped reports how many hosts were cut off. With
// Config.Query.PartialOnDeadline set, an expired deadline instead
// returns the merged partial result (ExecStats.Partial, nil error); with
// Config.Query.PerHostTimeout/HedgeAfter set, individual stragglers are
// dropped or hedged without failing the query (ExecStats.Hedged counts
// the duplicates issued).
func (c *Cluster) ExecuteContext(ctx context.Context, hosts []HostID, q Query) (Result, ExecStats, error) {
	return c.Ctrl.ExecuteContext(ctx, hosts, q)
}

// ExecuteTreeContext runs a query through a multi-level aggregation tree
// with the given per-level fan-outs (§3.2; the paper uses [7,4,4] over
// 112 hosts). Cancellation is as for ExecuteContext.
func (c *Cluster) ExecuteTreeContext(ctx context.Context, hosts []HostID, q Query, fanouts []int) (Result, ExecStats, error) {
	return c.Ctrl.ExecuteTreeContext(ctx, hosts, q, fanouts)
}

// InstallQueryContext installs a query at each host for periodic
// execution (period 0 = event-triggered). The returned handle uninstalls
// it. Installation is atomic at the fleet level: on the first failure
// every already-installed ID is rolled back before the error returns,
// even when the context is already cancelled.
func (c *Cluster) InstallQueryContext(ctx context.Context, hosts []HostID, q Query, period Time) (map[HostID]int, error) {
	return c.Ctrl.InstallContext(ctx, hosts, q, period)
}

// UninstallQueryContext removes previously installed queries.
func (c *Cluster) UninstallQueryContext(ctx context.Context, ids map[HostID]int) error {
	return c.Ctrl.UninstallContext(ctx, ids)
}

// QueryHostContext executes one query at one host (the direct query
// primitive) under a caller context.
func (c *Cluster) QueryHostContext(ctx context.Context, host HostID, q Query) (Result, error) {
	return c.Ctrl.QueryHostContext(ctx, host, q)
}

// SetQueryParallelism re-bounds the controller's concurrent per-host
// request fan-out (<= 0 means unlimited). Each execution captures the
// bound once at its start, so this applies to the next execute or
// install call; do not call it concurrently with in-flight queries.
func (c *Cluster) SetQueryParallelism(n int) { c.Ctrl.Parallelism = n }

// QueryParallelism reports the current fan-out bound (0 = unlimited).
func (c *Cluster) QueryParallelism() int { return c.Ctrl.Parallelism }

// SetStragglerPolicy retunes the controller's straggler tolerance for
// subsequent queries: hedgeAfter issues a duplicate request to a host
// that has not answered in time, perHostTimeout drops a host that
// exhausts its budget (marking the result Partial), and
// partialOnDeadline returns the merged partial result when the
// whole-query deadline expires instead of an error. Each execution
// captures the policy once at its start; do not call concurrently with
// in-flight queries.
func (c *Cluster) SetStragglerPolicy(hedgeAfter, perHostTimeout time.Duration, partialOnDeadline bool) {
	c.Ctrl.HedgeAfter = hedgeAfter
	c.Ctrl.PerHostTimeout = perHostTimeout
	c.Ctrl.PartialOnDeadline = partialOnDeadline
}

// ---- Debugging-application wrappers (§4) ----

// InstallTCPMonitor installs the active monitoring query at every host:
// each period, flows with ≥ threshold consecutive retransmissions raise
// POOR_PERF alarms (§3.2).
func (c *Cluster) InstallTCPMonitor(threshold int, period Time) (map[HostID]int, error) {
	return apps.InstallTCPMonitor(c.Ctrl, c.HostIDs(), threshold, period)
}

// InstallPathConformance installs the §2.3 conformance check at every
// host: alarms on paths of maxLen+ switches, paths crossing `avoid`, or
// paths missing `waypoints`.
func (c *Cluster) InstallPathConformance(maxLen int, avoid, waypoints []SwitchID, period Time) (map[HostID]int, error) {
	return apps.InstallPathConformance(c.Ctrl, c.HostIDs(), maxLen, avoid, waypoints, period)
}

// TopK returns the k biggest flows cluster-wide via the aggregation tree.
func (c *Cluster) TopK(k int, tr TimeRange, fanouts []int) ([]query.FlowBytes, ExecStats, error) {
	return apps.TopK(c.Ctrl, c.HostIDs(), k, tr, fanouts)
}

// FlowSizeDistribution runs the §2.3 load-imbalance query over the given
// links.
func (c *Cluster) FlowSizeDistribution(links []LinkID, tr TimeRange, binBytes uint64, fanouts []int) ([]query.LinkHist, ExecStats, error) {
	return apps.FlowSizeDistribution(c.Ctrl, c.HostIDs(), links, tr, binBytes, fanouts)
}

// SubflowBytes reports a sprayed flow's per-path traffic split (§4.2).
func (c *Cluster) SubflowBytes(f FlowID, tr TimeRange) ([]apps.PathBytes, error) {
	return apps.SubflowBytes(c.Ctrl, f, tr)
}

// DiagnoseBlackhole compares a flow's observed paths against its
// equal-cost set and joins the missing ones (§4.4).
func (c *Cluster) DiagnoseBlackhole(f FlowID, tr TimeRange) (*apps.BlackholeDiagnosis, error) {
	return apps.DiagnoseBlackhole(c.Ctrl, f, tr)
}

// DiagnoseOutcast analyses per-sender throughput at a receiver (§4.6).
func (c *Cluster) DiagnoseOutcast(receiver IP, tr TimeRange) (*apps.OutcastDiagnosis, error) {
	return apps.DiagnoseOutcast(c.Ctrl, receiver, tr)
}

// NewSilentDropDebugger attaches the §4.3 MAX-COVERAGE localiser to the
// controller's alarm stream.
func (c *Cluster) NewSilentDropDebugger() *apps.SilentDropDebugger {
	return apps.NewSilentDropDebugger(c.Ctrl)
}

// TrafficMatrix aggregates ToR-to-ToR bytes across all hosts.
func (c *Cluster) TrafficMatrix(tr TimeRange) ([]query.MatrixCell, error) {
	return apps.TrafficMatrix(c.Ctrl, c.HostIDs(), tr)
}

// DetectPolarization checks how flows leaving sw split over its
// equal-cost uplinks and raises ECMP_POLARIZED when the spread is
// degenerate (λ ≥ lambdaThresh with ≥ minFlows flows).
func (c *Cluster) DetectPolarization(sw SwitchID, tr TimeRange, lambdaThresh float64, minFlows int) (*apps.PolarizationReport, error) {
	return apps.DetectPolarization(c.Ctrl, c.HostIDs(), sw, tr, lambdaThresh, minFlows)
}

// RankPolarization sweeps DetectPolarization over switches, sorted by λ
// descending.
func (c *Cluster) RankPolarization(sws []SwitchID, tr TimeRange, lambdaThresh float64, minFlows int) ([]*apps.PolarizationReport, error) {
	return apps.RankPolarization(c.Ctrl, c.HostIDs(), sws, tr, lambdaThresh, minFlows)
}

// DetectIncast scans a receiver's TIB for a many-to-one microburst: a
// window of the given length in which flows from at least minSources
// distinct sources started. Returns (nil, nil) when no burst is found.
func (c *Cluster) DetectIncast(receiver HostID, window Time, minSources int, tr TimeRange) (*apps.IncastEvent, error) {
	return apps.DetectIncast(c.Ctrl, receiver, window, minSources, tr)
}

// LocalizeDDoS ranks a victim's traffic sources and aggregates the top
// sources' paths into per-switch byte totals, raising DDOS_SUSPECT when
// the concentration crosses the thresholds.
func (c *Cluster) LocalizeDDoS(victim HostID, tr TimeRange, topK int, shareThresh float64, minSources int) (*apps.DDoSLocalization, error) {
	return apps.LocalizeDDoS(c.Ctrl, victim, tr, topK, shareThresh, minSources)
}

// NewTransientLoopAuditor attaches a loop/failure-timeline correlator to
// the controller's LOOP stream. It is also subscribed to the simulator's
// link-state events, so administrative failures (FailLink, FlapLink,
// down-bit impairments) feed the failure timeline automatically;
// NoteLinkFailure remains available for out-of-band failures the fabric
// itself cannot observe.
func (c *Cluster) NewTransientLoopAuditor(window Time) *apps.TransientLoopAuditor {
	a := apps.NewTransientLoopAuditor(c.Ctrl, window)
	if c.Sim != nil {
		a.AttachSim(c.Sim)
	}
	return a
}

// Validate cross-checks a trajectory against the ground-truth topology
// (§2.4's defence against switches inserting wrong IDs).
func (c *Cluster) Validate(src, dst IP, p Path) error {
	return c.Topo.ValidTrajectory(src, dst, p)
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("pathdump cluster: %s, %d switches, %d hosts",
		c.Topo.Kind, c.Topo.NumSwitches(), len(c.Agents))
}
