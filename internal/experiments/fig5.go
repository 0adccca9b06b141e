package experiments

import (
	"context"
	"pathdump"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// Fig5Config parameterises the §4.2 ECMP load-imbalance experiment: a
// misconfigured aggregation switch pushes flows ≥ SplitBytes onto uplink
// 1 and the rest onto uplink 2, while web traffic flows from pod 1 to the
// remaining pods. The paper runs 10 minutes at 1 GbE; the default here is
// 60 virtual seconds at 50 Mb/s, which preserves the distributional shape.
type Fig5Config struct {
	LinkBps  int64         // default 50 Mb/s
	Load     float64       // default 0.3
	Duration pathdump.Time // default 60 s
	Window   pathdump.Time // default 5 s (the paper's measurement window)
	Split    int64         // default 1 MB
	BinBytes uint64        // default 10 kB (the paper's binsize)
	Seed     int64
}

func (c Fig5Config) withDefaults() Fig5Config {
	if c.LinkBps == 0 {
		c.LinkBps = 50e6
	}
	if c.Load == 0 {
		c.Load = 0.3
	}
	if c.Duration == 0 {
		c.Duration = 60 * pathdump.Second
	}
	if c.Window == 0 {
		c.Window = 5 * pathdump.Second
	}
	if c.Split == 0 {
		c.Split = 1_000_000
	}
	if c.BinBytes == 0 {
		c.BinBytes = 10_000
	}
	return c
}

// Fig5Window is one measurement window's per-link load.
type Fig5Window struct {
	Start         pathdump.Time
	Link1, Link2  uint64  // bytes on the two uplinks
	ImbalanceRate float64 // λ = (Lmax/L̄−1)·100%
}

// Fig5Result reproduces Figures 5(b) and 5(c).
type Fig5Result struct {
	Flows   int
	Windows []Fig5Window
	Hists   []query.LinkHist // per-uplink flow-size histograms (Fig. 5c)
	Link1   pathdump.LinkID
	Link2   pathdump.LinkID
	// QueryStats is the multi-level query cost of the Fig. 5(c) query.
	QueryStats pathdump.ExecStats
}

// Fig5 runs the experiment.
func Fig5(cfg Fig5Config) *Fig5Result {
	cfg = cfg.withDefaults()
	c := buildCluster(pathdump.NetConfig{BandwidthBps: cfg.LinkBps, Seed: cfg.Seed})
	topo := c.Topo

	// SAgg sits in pod 1 (the paper's Fig. 5a); its two core uplinks are
	// links 1 and 2.
	sAgg := topo.AggID(1, 0)
	link1 := pathdump.LinkID{A: sAgg, B: topo.CoreID(0)}
	link2 := pathdump.LinkID{A: sAgg, B: topo.CoreID(1)}
	split := cfg.Split
	c.Sim.SetNextHopOverride(sAgg, func(pkt *netsim.Packet, canonical []types.SwitchID, _ netsim.NodeID) (types.SwitchID, bool) {
		if len(canonical) < 2 || pkt.Ack {
			return 0, false
		}
		if pkt.Meta >= split {
			return link1.B, true
		}
		return link2.B, true
	})

	srcs, dsts := podHosts(c, 1)
	gen := startWebTraffic(c, srcs, dsts, cfg.Load, cfg.LinkBps, cfg.Duration, cfg.Seed+1)
	c.Run(cfg.Duration + 10*pathdump.Second) // drain evictions

	res := &Fig5Result{Flows: gen.Started, Link1: link1, Link2: link2}

	// Fig. 5(b): imbalance rate per window, from TIB byte counts.
	for t := pathdump.Time(0); t < cfg.Duration; t += cfg.Window {
		tr := pathdump.TimeRange{From: t, To: t + cfg.Window}
		w := Fig5Window{Start: t}
		w.Link1 = linkBytes(c, link1, tr)
		w.Link2 = linkBytes(c, link2, tr)
		w.ImbalanceRate = imbalanceRate(float64(w.Link1), float64(w.Link2))
		res.Windows = append(res.Windows, w)
	}

	// Fig. 5(c): per-link flow-size distribution by multi-level query.
	hists, stats, err := c.FlowSizeDistribution(
		[]pathdump.LinkID{link1, link2}, pathdump.AllTime, cfg.BinBytes, []int{4, 2})
	if err != nil {
		panic(err)
	}
	res.Hists = hists
	res.QueryStats = stats
	return res
}

func linkBytes(c *pathdump.Cluster, l pathdump.LinkID, tr pathdump.TimeRange) uint64 {
	res, _, err := c.ExecuteContext(context.Background(), c.HostIDs(), pathdump.Query{Op: pathdump.OpRecords, Link: l, Range: tr})
	if err != nil {
		panic(err)
	}
	var b uint64
	for _, r := range res.Records {
		b += r.Bytes
	}
	return b
}

func imbalanceRate(a, b float64) float64 {
	mean := (a + b) / 2
	if mean == 0 {
		return 0
	}
	max := a
	if b > max {
		max = b
	}
	return (max/mean - 1) * 100
}

// SplitQuality summarises how sharply Fig. 5(c)'s two distributions divide
// around the split point: the fraction of link-1 flows at or above it and
// of link-2 flows below it (both ≈1 when the misconfiguration is exposed).
func (r *Fig5Result) SplitQuality(split uint64) (big1, small2 float64) {
	frac := func(h query.LinkHist, above bool) float64 {
		var hit, total uint64
		for i, cnt := range h.Bins {
			total += cnt
			lo := uint64(i) * h.BinBytes
			if above == (lo >= split-h.BinBytes) { // bin straddling the split counts as above
				hit += cnt
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hit) / float64(total)
	}
	for _, h := range r.Hists {
		switch h.Link {
		case r.Link1:
			big1 = frac(h, true)
		case r.Link2:
			small2 = frac(h, false)
		}
	}
	return big1, small2
}
