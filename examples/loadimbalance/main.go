// Load-imbalance diagnosis (§4.2, Fig. 5): a misconfigured aggregation
// switch splits traffic by flow size instead of hashing, so one uplink
// carries all the elephants. The operator notices a high imbalance rate,
// then issues the §2.3 flow-size-distribution query across all TIBs; the
// per-link CDFs split sharply around 1 MB, exposing the root cause.
package main

import (
	"context"
	"fmt"
	"log"

	"pathdump"
	"pathdump/internal/netsim"
	"pathdump/internal/types"
	"pathdump/internal/workload"
)

func main() {
	c, err := pathdump.NewFatTree(4, pathdump.Config{
		Net: pathdump.NetConfig{BandwidthBps: 100e6, Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}
	topo := c.Topo

	// SAgg = agg(0,0): send flows >1 MB to core link 1, the rest to
	// core link 2 (the paper's poor hash function).
	sAgg := topo.AggID(0, 0)
	link1 := pathdump.LinkID{A: sAgg, B: topo.CoreID(0)}
	link2 := pathdump.LinkID{A: sAgg, B: topo.CoreID(1)}
	c.Sim.SetNextHopOverride(sAgg, func(pkt *netsim.Packet, canonical []types.SwitchID, _ netsim.NodeID) (types.SwitchID, bool) {
		if len(canonical) < 2 || pkt.Ack {
			return 0, false // descending traffic: leave alone
		}
		if pkt.Meta >= 1_000_000 { // flow size travels in packet metadata
			return link1.B, true
		}
		return link2.B, true
	})

	// Web-traffic flows from pod 1's... sources are pod 0 hosts; dests
	// in the remaining pods (§4.2).
	var srcs, dsts []pathdump.HostID
	for _, h := range topo.Hosts() {
		if h.Pod == 0 {
			srcs = append(srcs, h.ID)
		} else {
			dsts = append(dsts, h.ID)
		}
	}
	stacks := c.Stacks
	gen, err := workload.NewGenerator(c.Sim, stacks, workload.GenConfig{
		Sources: srcs, Dests: dsts,
		Load: 0.3, LinkBps: 100e6, Dist: workload.WebSearch(),
		Until: 30 * pathdump.Second, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen.Start()
	c.Run(35 * pathdump.Second)
	fmt.Printf("generated %d flows over 30s of virtual time\n", gen.Started)

	// Fig. 5(b): imbalance rate between the two uplinks over 5 s windows.
	fmt.Println("\n-- load imbalance rate per 5 s window --")
	for t := pathdump.Time(0); t < 30*pathdump.Second; t += 5 * pathdump.Second {
		tr := pathdump.TimeRange{From: t, To: t + 5*pathdump.Second}
		res, _, err := c.ExecuteContext(context.Background(), c.HostIDs(), pathdump.Query{Op: pathdump.OpRecords, Link: link1, Range: tr})
		if err != nil {
			log.Fatal(err)
		}
		var b1, b2 uint64
		for _, r := range res.Records {
			b1 += r.Bytes
		}
		res, _, _ = c.ExecuteContext(context.Background(), c.HostIDs(), pathdump.Query{Op: pathdump.OpRecords, Link: link2, Range: tr})
		for _, r := range res.Records {
			b2 += r.Bytes
		}
		rate := imbalance(float64(b1), float64(b2))
		fmt.Printf("t=%2ds  link1=%9d B  link2=%9d B  imbalance=%5.1f%%\n",
			t/pathdump.Second, b1, b2, rate)
	}

	// Fig. 5(c): per-link flow size distribution via a multi-level query.
	hists, stats, err := c.FlowSizeDistribution(
		[]pathdump.LinkID{link1, link2}, pathdump.AllTime, 10_000, []int{4, 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- flow size distribution (multi-level query, %v) --\n", stats.ResponseTime)
	for _, h := range hists {
		n, min, max := summarize(h.Bins, h.BinBytes)
		fmt.Printf("%v: %4d flows, sizes %8d..%-9d B\n", h.Link, n, min, max)
	}
	fmt.Println("\nlink1 carries only ≥1MB flows while link2 carries the mice —")
	fmt.Println("the split at 1 MB exposes the size-based (mis)configuration.")
}

func imbalance(a, b float64) float64 {
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

func summarize(bins []uint64, width uint64) (n uint64, min, max uint64) {
	min = ^uint64(0)
	for i, cnt := range bins {
		if cnt == 0 {
			continue
		}
		n += cnt
		lo := uint64(i) * width
		hi := uint64(i+1) * width
		if lo < min {
			min = lo
		}
		if hi > max {
			max = hi
		}
	}
	if n == 0 {
		min = 0
	}
	return n, min, max
}
