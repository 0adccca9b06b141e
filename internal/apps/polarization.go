package apps

import (
	"context"
	"sort"
	"sync"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// PolarizationReport is the result of an ECMP hash-polarization check at
// one switch: how the flows crossing it split over its equal-cost
// uplinks. A healthy hash spreads flows near-evenly; a degenerate or
// correlated hash (the classic polarization bug: every switch in a tier
// computing the same function over the same fields) concentrates them
// on one uplink while the rest idle.
type PolarizationReport struct {
	// Switch is the inspected switch; Uplinks its equal-cost next hops.
	Switch  types.SwitchID
	Uplinks []types.SwitchID
	// FlowsPerUplink and BytesPerUplink are the observed spread, keyed
	// in Uplinks order.
	FlowsPerUplink []int
	BytesPerUplink []uint64
	// TotalFlows counts distinct flows observed across all uplinks.
	TotalFlows int
	// Lambda is the paper's imbalance metric λ = (Lmax/L̄ − 1)·100%
	// computed over the per-uplink flow counts.
	Lambda float64
	// Polarized reports whether the spread crossed the caller's
	// threshold with enough flows to be statistically meaningful.
	Polarized bool
}

// DetectPolarization inspects how flows leaving sw split across its
// equal-cost uplinks, using only end-host TIB evidence (OpFlows per
// directed sw→uplink link). It flags polarization when λ over the
// per-uplink flow counts reaches lambdaThresh (percent) with at least
// minFlows distinct flows, and then raises one ECMP_POLARIZED alarm
// through the controller pipeline — repeated detections of the same
// switch fold into one history entry under the suppression window.
func DetectPolarization(c *controller.Controller, hosts []types.HostID, sw types.SwitchID, tr types.TimeRange, lambdaThresh float64, minFlows int) (*PolarizationReport, error) {
	node := c.Topo.Switch(sw)
	if node == nil {
		return nil, errNoData("switch")
	}
	rep := &PolarizationReport{Switch: sw, Uplinks: node.Up}
	seen := make(map[types.FlowID]bool)
	var exemplar types.FlowID
	var exemplarPath types.Path
	var hottest int
	for _, up := range node.Up {
		link := types.LinkID{A: sw, B: up}
		res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpFlows, Link: link, Range: tr})
		if err != nil {
			return nil, err
		}
		flows := 0
		var bytes uint64
		perLink := make(map[types.FlowID]bool)
		for _, fl := range res.Flows {
			if !perLink[fl.ID] {
				perLink[fl.ID] = true
				flows++
			}
			if !seen[fl.ID] {
				seen[fl.ID] = true
				rep.TotalFlows++
			}
		}
		// Bytes ride along from raw records (one scan per uplink).
		rec, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpRecords, Link: link, Range: tr})
		if err != nil {
			return nil, err
		}
		for i := range rec.Records {
			bytes += rec.Records[i].Bytes
		}
		rep.FlowsPerUplink = append(rep.FlowsPerUplink, flows)
		rep.BytesPerUplink = append(rep.BytesPerUplink, bytes)
		if flows > hottest && len(res.Flows) > 0 {
			hottest = flows
			fl := pickExemplar(res.Flows)
			exemplar, exemplarPath = fl.ID, fl.Path
		}
	}
	loads := make([]float64, len(rep.FlowsPerUplink))
	for i, n := range rep.FlowsPerUplink {
		loads[i] = float64(n)
	}
	rep.Lambda = ImbalanceRate(loads)
	rep.Polarized = rep.TotalFlows >= minFlows && rep.Lambda >= lambdaThresh
	if rep.Polarized {
		c.RaiseAlarm(types.Alarm{
			Host:   hotUplinkHost(c, exemplar),
			Flow:   exemplar,
			Reason: types.ReasonPolarized,
			Paths:  []types.Path{exemplarPath},
			At:     c.VirtualNow(),
		})
	}
	return rep, nil
}

// pickExemplar returns the lexicographically smallest flow so the alarm
// payload — and therefore the suppression key — is deterministic across
// repeated detections.
func pickExemplar(flows []types.Flow) types.Flow {
	best := flows[0]
	for _, fl := range flows[1:] {
		if fl.ID.String() < best.ID.String() {
			best = fl
		}
	}
	return best
}

// hotUplinkHost resolves the host that observed the exemplar flow (its
// destination), falling back to host 0 when the flow is foreign.
func hotUplinkHost(c *controller.Controller, f types.FlowID) types.HostID {
	if h := c.Topo.HostByIP(f.DstIP); h != nil {
		return h.ID
	}
	return 0
}

// RankPolarization runs DetectPolarization over a set of switches and
// returns the reports sorted by λ descending — the fleet-wide sweep an
// operator runs when polarization is suspected but not yet localised.
//
// The per-switch detections run concurrently, bounded by the
// controller's Parallelism knob (<= 0 = one goroutine per switch): each
// detection is a couple of fan-outs whose wall time is dominated by
// waiting on agents, so a serial sweep of S switches pays S round-trip
// waves for no reason. The output is deterministic regardless of
// completion order — reports land in indexed slots, errors are reported
// in switch order, and the final sort breaks λ ties by switch ID.
func RankPolarization(c *controller.Controller, hosts []types.HostID, sws []types.SwitchID, tr types.TimeRange, lambdaThresh float64, minFlows int) ([]*PolarizationReport, error) {
	reps := make([]*PolarizationReport, len(sws))
	errs := make([]error, len(sws))
	var sem chan struct{}
	if c.Parallelism > 0 {
		sem = make(chan struct{}, c.Parallelism)
	}
	var wg sync.WaitGroup
	for i, sw := range sws {
		wg.Add(1)
		go func(i int, sw types.SwitchID) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			reps[i], errs[i] = DetectPolarization(c, hosts, sw, tr, lambdaThresh, minFlows)
		}(i, sw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []*PolarizationReport
	for _, rep := range reps {
		if rep.TotalFlows > 0 {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lambda != out[j].Lambda {
			return out[i].Lambda > out[j].Lambda
		}
		return out[i].Switch < out[j].Switch
	})
	return out, nil
}
