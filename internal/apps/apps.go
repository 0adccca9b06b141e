// Package apps implements the paper's debugging applications (§2.3, §4)
// on top of the controller API: path conformance, load-imbalance
// diagnosis, packet-spray analysis, silent-drop localisation (via
// MAX-COVERAGE), blackhole diagnosis, TCP outcast diagnosis, top-k flows,
// traffic matrices, DDoS source analysis, waypoint and isolation checks.
// Each application is a thin composition over getFlows / getPaths /
// getCount / getDuration / getPoorTCPFlows plus the controller's
// execute/install primitives — which is the paper's central argument:
// once trajectories live at the edge, debugging tools are small.
package apps

import (
	"context"
	"fmt"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// InstallPathConformance installs the §2.3 path-conformance query at the
// given hosts: alarms fire for paths of maxLen or more switches, paths
// traversing an avoided switch, or paths missing a waypoint. period 0
// checks every new record.
func InstallPathConformance(c *controller.Controller, hosts []types.HostID, maxLen int, avoid, waypoints []types.SwitchID, period types.Time) (map[types.HostID]int, error) {
	return c.InstallContext(context.Background(), hosts, query.Query{
		Op:         query.OpConformance,
		MaxPathLen: maxLen,
		Avoid:      avoid,
		Waypoints:  waypoints,
	}, period)
}

// InstallTCPMonitor installs the active monitoring query (§3.2): every
// period (the paper uses 200 ms), flows whose consecutive retransmissions
// reach threshold raise POOR_PERF alarms.
func InstallTCPMonitor(c *controller.Controller, hosts []types.HostID, threshold int, period types.Time) (map[types.HostID]int, error) {
	return c.InstallContext(context.Background(), hosts, query.Query{Op: query.OpPoorTCP, Threshold: threshold}, period)
}

// TopK returns the k largest flows across the given hosts, executed
// through the multi-level aggregation tree when fanouts is non-empty
// (§2.3 top-k example).
func TopK(c *controller.Controller, hosts []types.HostID, k int, tr types.TimeRange, fanouts []int) ([]query.FlowBytes, controller.ExecStats, error) {
	res, stats, err := c.ExecuteTreeContext(context.Background(), hosts, query.Query{Op: query.OpTopK, K: k, Range: tr}, fanouts)
	return res.Top, stats, err
}

// TrafficMatrix aggregates the ToR-to-ToR byte matrix across hosts (§2.3).
func TrafficMatrix(c *controller.Controller, hosts []types.HostID, tr types.TimeRange) ([]query.MatrixCell, error) {
	res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpMatrix, Range: tr})
	return res.Matrix, err
}

// DDoSSources ranks traffic sources observed at a victim host (§2.3's
// DDoS diagnosis): bytes received per source address.
func DDoSSources(c *controller.Controller, victim types.HostID, tr types.TimeRange) ([]query.FlowBytes, error) {
	res, err := c.QueryHostContext(context.Background(), victim, query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	perSrc := make(map[types.IP]*query.FlowBytes)
	for _, fl := range res.Flows {
		cnt, err := c.QueryHostContext(context.Background(), victim, query.Query{Op: query.OpCount, Flow: fl.ID, Range: tr})
		if err != nil {
			return nil, err
		}
		fb := perSrc[fl.ID.SrcIP]
		if fb == nil {
			fb = &query.FlowBytes{Flow: types.FlowID{SrcIP: fl.ID.SrcIP}}
			perSrc[fl.ID.SrcIP] = fb
		}
		fb.Bytes += cnt.Bytes
		fb.Pkts += cnt.Pkts
	}
	out := make([]query.FlowBytes, 0, len(perSrc))
	for _, fb := range perSrc {
		out = append(out, *fb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.SrcIP < out[j].Flow.SrcIP
	})
	return out, nil
}

// WaypointViolations finds flows whose paths missed a mandatory waypoint
// switch (§2.3 waypoint routing).
func WaypointViolations(c *controller.Controller, hosts []types.HostID, waypoint types.SwitchID, tr types.TimeRange) ([]query.Violation, error) {
	res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{
		Op: query.OpConformance, Waypoints: []types.SwitchID{waypoint}, Range: tr,
	})
	return res.Violations, err
}

// IsolationPolicy whitelists communicating host pairs (Table 2's
// "isolation: check if hosts are allowed to talk").
type IsolationPolicy struct {
	allowed map[[2]types.IP]bool
}

// NewIsolationPolicy builds an empty policy.
func NewIsolationPolicy() *IsolationPolicy {
	return &IsolationPolicy{allowed: make(map[[2]types.IP]bool)}
}

// Allow permits src→dst traffic.
func (p *IsolationPolicy) Allow(src, dst types.IP) { p.allowed[[2]types.IP{src, dst}] = true }

// IsolationViolations returns flows observed at the hosts that the policy
// does not permit.
func IsolationViolations(c *controller.Controller, hosts []types.HostID, p *IsolationPolicy, tr types.TimeRange) ([]types.FlowID, error) {
	res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	seen := make(map[types.FlowID]bool)
	var out []types.FlowID
	for _, fl := range res.Flows {
		if seen[fl.ID] {
			continue
		}
		seen[fl.ID] = true
		if !p.allowed[[2]types.IP{fl.ID.SrcIP, fl.ID.DstIP}] {
			out = append(out, fl.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// CongestedLinkFlows returns the flows crossing a given link, ranked by
// bytes — Table 2's congested-link diagnosis ("find flows using a
// congested link, to help rerouting").
func CongestedLinkFlows(c *controller.Controller, hosts []types.HostID, link types.LinkID, tr types.TimeRange) ([]query.FlowBytes, error) {
	res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpFlows, Link: link, Range: tr})
	if err != nil {
		return nil, err
	}
	var out []query.FlowBytes
	for _, fl := range res.Flows {
		dst := c.Topo.HostByIP(fl.ID.DstIP)
		if dst == nil {
			continue
		}
		cnt, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpCount, Flow: fl.ID, Range: tr})
		if err != nil {
			return nil, err
		}
		out = append(out, query.FlowBytes{Flow: fl.ID, Bytes: cnt.Bytes, Pkts: cnt.Pkts})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	return out, nil
}

// hostsOfTopo lists every host ID of the controller's topology.
func hostsOfTopo(c *controller.Controller) []types.HostID {
	hosts := c.Topo.Hosts()
	out := make([]types.HostID, len(hosts))
	for i, h := range hosts {
		out[i] = h.ID
	}
	return out
}

// errNoData standardises "nothing recorded" failures.
func errNoData(what string) error { return fmt.Errorf("apps: no TIB data for %s", what) }
