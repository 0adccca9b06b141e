package apps

import (
	"context"
	"math"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// FlowSizeDistribution runs the §2.3 load-imbalance diagnosis: a
// multi-level query collecting, for each link of interest, the histogram
// of flow sizes observed crossing it. Cross-comparing the per-link
// distributions tells the operator the degree — and the cause — of load
// imbalance (Fig. 5c).
func FlowSizeDistribution(c *controller.Controller, hosts []types.HostID, links []types.LinkID, tr types.TimeRange, binBytes uint64, fanouts []int) ([]query.LinkHist, controller.ExecStats, error) {
	res, stats, err := c.ExecuteTreeContext(context.Background(), hosts, query.Query{
		Op: query.OpFSD, Links: links, Range: tr, BinBytes: binBytes,
	}, fanouts)
	return res.Hists, stats, err
}

// ImbalanceRate is the paper's metric λ = (Lmax/L̄ − 1)·100% over a set of
// link loads [31] (Fig. 5b).
func ImbalanceRate(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	return (max/mean - 1) * 100
}

// LinkBytes sums the bytes every flow carried over each of the given
// links within the range (the raw loads behind ImbalanceRate).
func LinkBytes(c *controller.Controller, hosts []types.HostID, links []types.LinkID, tr types.TimeRange) (map[types.LinkID]uint64, error) {
	out := make(map[types.LinkID]uint64, len(links))
	for _, l := range links {
		res, _, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpRecords, Link: l, Range: tr})
		if err != nil {
			return nil, err
		}
		for _, rec := range res.Records {
			out[l] += rec.Bytes
		}
	}
	return out, nil
}

// CDF converts a histogram into (value, cumulative fraction) points for
// plotting (Figs. 5b/5c are CDFs).
func CDF(h query.LinkHist) [][2]float64 {
	var total uint64
	for _, b := range h.Bins {
		total += b
	}
	if total == 0 {
		return nil
	}
	var out [][2]float64
	var cum uint64
	for i, b := range h.Bins {
		if b == 0 {
			continue
		}
		cum += b
		size := float64(uint64(i+1) * h.BinBytes)
		out = append(out, [2]float64{size, float64(cum) / float64(total)})
	}
	return out
}

// Percentile reads a value off CDF points (0 < p ≤ 1).
func Percentile(points [][2]float64, p float64) float64 {
	if len(points) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(points), func(i int) bool { return points[i][1] >= p })
	if i >= len(points) {
		i = len(points) - 1
	}
	return points[i][0]
}

// SubflowBytes reports the per-path traffic split of a single flow from
// its destination TIB — the §4.2 packet-spraying analysis (Fig. 6). The
// result is sorted by path string for stable output.
func SubflowBytes(c *controller.Controller, flow types.FlowID, tr types.TimeRange) ([]PathBytes, error) {
	dst := c.Topo.HostByIP(flow.DstIP)
	if dst == nil {
		return nil, errNoData("destination host")
	}
	paths, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpPaths, Flow: flow, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	if len(paths.Paths) == 0 {
		return nil, errNoData(flow.String())
	}
	out := make([]PathBytes, 0, len(paths.Paths))
	for _, p := range paths.Paths {
		cnt, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpCount, Flow: flow, Path: p, Range: tr})
		if err != nil {
			return nil, err
		}
		out = append(out, PathBytes{Path: p, Bytes: cnt.Bytes, Pkts: cnt.Pkts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path.String() < out[j].Path.String() })
	return out, nil
}

// PathBytes is one subflow's traffic on one path.
type PathBytes struct {
	Path  types.Path
	Bytes uint64
	Pkts  uint64
}

// SprayImbalance quantifies how unevenly a sprayed flow's subflows spread:
// the imbalance rate over per-path byte counts. The §4.2 real-time monitor
// installs a query alarming when this exceeds a threshold.
func SprayImbalance(sub []PathBytes) float64 {
	loads := make([]float64, len(sub))
	for i, s := range sub {
		loads[i] = float64(s.Bytes)
	}
	return ImbalanceRate(loads)
}
