package apps

import (
	"context"
	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// BlackholeDiagnosis is the §4.4 result: under packet spraying, a
// blackholed link swallows entire subflows, so some equal-cost paths never
// appear in the destination TIB. Joining the missing paths shrinks the
// debugging search space to a few suspect switches.
type BlackholeDiagnosis struct {
	Flow     types.FlowID
	Expected []types.Path
	Observed []types.Path
	Missing  []types.Path
	// Suspects are the switches common to every missing path (the
	// endpoints' ToRs excluded — healthy subflows prove them innocent).
	Suspects []types.SwitchID
}

// DiagnoseBlackhole compares the flow's observed per-path records against
// the canonical equal-cost path set and joins the missing paths.
func DiagnoseBlackhole(c *controller.Controller, flow types.FlowID, tr types.TimeRange) (*BlackholeDiagnosis, error) {
	dst := c.Topo.HostByIP(flow.DstIP)
	if dst == nil {
		return nil, errNoData("destination host")
	}
	res, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{
		Op: query.OpPaths, Flow: flow, Link: types.AnyLink, Range: tr,
	})
	if err != nil {
		return nil, err
	}
	router := topology.NewRouter(c.Topo)
	d := &BlackholeDiagnosis{
		Flow:     flow,
		Expected: router.EqualCostPaths(flow.SrcIP, flow.DstIP),
		Observed: res.Paths,
	}
	observed := make(map[string]bool, len(d.Observed))
	for _, p := range d.Observed {
		observed[p.Key()] = true
	}
	for _, p := range d.Expected {
		if !observed[p.Key()] {
			d.Missing = append(d.Missing, p)
		}
	}
	d.Suspects = joinPaths(d.Missing, c.Topo.ToROf(flow.SrcIP), c.Topo.ToROf(flow.DstIP))
	return d, nil
}

// joinPaths intersects the switch sets of the missing paths, dropping the
// shared endpoint ToRs.
func joinPaths(missing []types.Path, srcToR, dstToR types.SwitchID) []types.SwitchID {
	if len(missing) == 0 {
		return nil
	}
	counts := make(map[types.SwitchID]int)
	for _, p := range missing {
		seen := make(map[types.SwitchID]bool, len(p))
		for _, s := range p {
			if s == srcToR || s == dstToR || seen[s] {
				continue
			}
			seen[s] = true
			counts[s]++
		}
	}
	var out []types.SwitchID
	// Preserve first-missing-path order for determinism.
	for _, s := range missing[0] {
		if counts[s] == len(missing) {
			out = append(out, s)
			counts[s] = -1 // emit once
		}
	}
	return out
}
