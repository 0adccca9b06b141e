package apps

import (
	"context"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/maxcov"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// SilentDropDebugger is the §4.3 application: end-host monitors raise
// POOR_PERF alarms; for each alarm the controller fetches the suffering
// flow's path(s) from the destination TIB as a failure signature and runs
// MAX-COVERAGE over the accumulated signatures to localise the silently
// dropping interfaces.
//
// One refinement over plain greedy coverage: candidate links are scored by
// the fraction of their flows that alarmed, not the absolute count. The
// TIB supplies the denominator (getFlows per link across hosts) — busy
// shared links accumulate background congestion alarms in proportion to
// their traffic and score low, while a faulty interface makes a large
// fraction of *its* flows suffer regardless of how much it carries. This
// keeps precision converging to 1 as evidence accumulates (Fig. 7) instead
// of decaying under alarm noise.
type SilentDropDebugger struct {
	c *controller.Controller

	// MinCover is the minimum alarmed-flow count before a link can be
	// blamed (default 2). MinRatioFactor is the outlier test: a link is
	// blamed only while its alarmed/total ratio is at least this multiple
	// of the median candidate ratio (default 3) — an absolute threshold
	// would depend on the workload's flow-size mix.
	MinCover       int
	MinRatioFactor float64

	sigs []maxcov.Signature
	// Signatures per ⟨flow, path⟩ are deduplicated: a flow that keeps
	// alarming on the same path adds no information.
	seen map[string]bool
}

// NewSilentDropDebugger registers the debugger on the controller's alarm
// stream and returns it.
func NewSilentDropDebugger(c *controller.Controller) *SilentDropDebugger {
	d := &SilentDropDebugger{c: c, MinCover: 2, MinRatioFactor: 3, seen: make(map[string]bool)}
	c.OnAlarm(func(a types.Alarm) {
		if a.Reason == types.ReasonPoorPerf {
			d.handle(a)
		}
	})
	return d
}

// handle fetches failure signatures for one POOR_PERF alarm.
func (d *SilentDropDebugger) handle(a types.Alarm) {
	dst := d.c.Topo.HostByIP(a.Flow.DstIP)
	if dst == nil {
		return
	}
	// §2.3: paths = getPaths(flowID, ⟨*,*⟩, ⟨t1,*⟩) at the destination.
	res, err := d.c.QueryHostContext(context.Background(), dst.ID, query.Query{
		Op: query.OpPaths, Flow: a.Flow, Link: types.AnyLink, Range: types.AllTime,
	})
	if err != nil {
		return
	}
	for _, p := range res.Paths {
		k := a.Flow.String() + p.Key()
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		d.sigs = append(d.sigs, maxcov.FromPath(p))
	}
}

// Signatures returns the number of accumulated failure signatures.
func (d *SilentDropDebugger) Signatures() int { return len(d.sigs) }

// Localize runs the ratio-weighted MAX-COVERAGE greedy: repeatedly blame
// the link with the highest alarmed/total flow ratio, provided it covers
// at least MinCover signatures and its ratio stands out from the field
// (≥ MinRatioFactor × the median candidate ratio), then remove the
// signatures it explains and repeat. Downstream links of a faulty
// interface accumulate the same alarmed flows, but removing the faulty
// link's signatures collapses their counts, so the greedy stops cleanly.
func (d *SilentDropDebugger) Localize() []types.LinkID {
	uncovered := make([]maxcov.Signature, len(d.sigs))
	copy(uncovered, d.sigs)
	totals := make(map[types.LinkID]int)
	var out []types.LinkID
	for {
		counts := make(map[types.LinkID]int)
		for _, s := range uncovered {
			seen := make(map[types.LinkID]bool, len(s))
			for _, l := range s {
				if !seen[l] {
					seen[l] = true
					counts[l]++
				}
			}
		}
		best := types.LinkID{}
		bestScore := -1.0
		ratios := make([]float64, 0, len(counts))
		for l, cov := range counts {
			score := float64(cov) / float64(d.linkTotal(l, totals))
			ratios = append(ratios, score)
			if cov < d.MinCover {
				continue
			}
			if score > bestScore || (score == bestScore && lessLink(l, best)) {
				best, bestScore = l, score
			}
		}
		if bestScore < 0 || bestScore < d.MinRatioFactor*median(ratios) {
			return out
		}
		out = append(out, best)
		next := uncovered[:0]
		for _, s := range uncovered {
			if !sigContains(s, best) {
				next = append(next, s)
			}
		}
		uncovered = next
	}
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// linkTotal counts (and memoises) the distinct flows recorded across all
// TIBs for a link — the ratio's denominator.
func (d *SilentDropDebugger) linkTotal(l types.LinkID, cache map[types.LinkID]int) int {
	if n, ok := cache[l]; ok {
		return n
	}
	n := 0
	res, _, err := d.c.ExecuteContext(context.Background(), hostsOfTopo(d.c), query.Query{Op: query.OpFlows, Link: l})
	if err == nil {
		seen := make(map[types.FlowID]bool, len(res.Flows))
		for _, f := range res.Flows {
			seen[f.ID] = true
		}
		n = len(seen)
	}
	if n < 1 {
		n = 1
	}
	cache[l] = n
	return n
}

func sigContains(s maxcov.Signature, l types.LinkID) bool {
	for _, x := range s {
		if x == l {
			return true
		}
	}
	return false
}

func lessLink(a, b types.LinkID) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Accuracy scores the current hypothesis against known faulty links
// (ground truth available only to the experiment harness).
func (d *SilentDropDebugger) Accuracy(truth []types.LinkID) (recall, precision float64) {
	return maxcov.Score(d.Localize(), truth)
}
