// Command experiments regenerates every table and figure of the paper's
// evaluation over the simulated substrate and prints the series the paper
// reports. Run with a figure name, or `all`:
//
//	go run ./cmd/experiments fig5
//	go run ./cmd/experiments -quick all
//
// -quick shrinks durations/run counts for a fast smoke pass; defaults are
// the paper-shaped (but laptop-scaled) parameters of each experiment's
// config in internal/experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pathdump"
	"pathdump/internal/experiments"
)

var quick = flag.Bool("quick", false, "shrink durations and run counts")

var figures = map[string]func(){
	"fig5":    fig5,
	"fig6":    fig6,
	"fig7":    fig7,
	"fig8":    fig8,
	"fig9":    fig9,
	"fig10":   fig10,
	"fig11":   fig11,
	"fig12":   fig12,
	"fig13":   fig13,
	"table2":  table2,
	"storage": storage,
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "all" {
		names := make([]string, 0, len(figures))
		for n := range figures {
			names = append(names, n)
		}
		sort.Strings(names)
		args = names
	}
	for _, name := range args {
		fn, ok := figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		fmt.Printf("==================== %s ====================\n", name)
		fn()
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [-quick] {fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table2|storage|all}")
}

func fig5() {
	cfg := experiments.Fig5Config{}
	if *quick {
		cfg.Duration = 20 * pathdump.Second
		cfg.LinkBps = 20e6
	}
	r := experiments.Fig5(cfg)
	fmt.Printf("ECMP load-imbalance diagnosis (§4.2): %d flows generated\n\n", r.Flows)
	fmt.Println("Fig 5(b) — per-window load and imbalance rate λ=(Lmax/L̄−1)·100%:")
	fmt.Println("window_start_s  link1_bytes  link2_bytes  imbalance_pct")
	for _, w := range r.Windows {
		fmt.Printf("%14.0f  %11d  %11d  %13.1f\n",
			w.Start.Seconds(), w.Link1, w.Link2, w.ImbalanceRate)
	}
	fmt.Println("\nFig 5(c) — flow-size CDF per uplink (multi-level query):")
	for _, h := range r.Hists {
		fmt.Printf("link %v:\n", h.Link)
		var total, cum uint64
		for _, b := range h.Bins {
			total += b
		}
		for i, b := range h.Bins {
			if b == 0 {
				continue
			}
			cum += b
			fmt.Printf("  ≤%8d B  cdf=%.3f\n", uint64(i+1)*h.BinBytes, float64(cum)/float64(total))
		}
	}
	big1, small2 := r.SplitQuality(1_000_000)
	fmt.Printf("\nsplit sharpness at 1 MB: link1 ≥1MB-flows=%.2f, link2 <1MB-flows=%.2f\n", big1, small2)
	fmt.Printf("query: %v response over %d hosts, %d wire bytes\n",
		r.QueryStats.ResponseTime, r.QueryStats.Hosts, r.QueryStats.WireBytes)
}

func fig6() {
	cfg := experiments.Fig6Config{}
	if *quick {
		cfg.FlowBytes = 2_000_000
	}
	r := experiments.Fig6(cfg)
	fmt.Println("Packet-spray traffic split of one flow (§4.2, from destination TIB):")
	fmt.Println("\ncase=balanced")
	for i, pb := range r.Balanced {
		fmt.Printf("  path%d %-24s %9.2f MB\n", i+1, pb.Path, float64(pb.Bytes)/1e6)
	}
	fmt.Println("case=imbalanced")
	for i, pb := range r.Imbalanced {
		fmt.Printf("  path%d %-24s %9.2f MB\n", i+1, pb.Path, float64(pb.Bytes)/1e6)
	}
	fmt.Printf("\nspray imbalance rate: balanced=%.1f%%  imbalanced=%.1f%%\n",
		r.BalancedRate, r.ImbalancedRate)
}

func fig7() {
	for _, n := range []int{1, 2, 4} {
		cfg := experiments.Fig7Config{Faulty: n}
		if *quick {
			cfg.Duration = 60 * pathdump.Second
			cfg.Runs = 1
			cfg.LinkBps = 20e6
		}
		r := experiments.Fig7(cfg)
		fmt.Printf("silent-drop localisation, %d faulty interface(s), 1%% loss, 70%% load:\n", n)
		fmt.Println("time_s  signatures  recall  precision")
		for _, p := range r.Points {
			fmt.Printf("%6.0f  %10.1f  %6.2f  %9.2f\n", p.T.Seconds(), p.Signatures, p.Recall, p.Precision)
		}
		if r.TimeTo100 >= 0 {
			fmt.Printf("time to 100%% recall and precision: %v\n\n", r.TimeTo100)
		} else {
			fmt.Println("did not reach 100% within the run")
		}
	}
}

func fig8() {
	base := experiments.Fig7Config{Faulty: 2}
	cfg := experiments.Fig8Config{}
	if *quick {
		base.Duration = 60 * pathdump.Second
		base.Runs = 1
		base.LinkBps = 20e6
		cfg.LossRates = []float64{0.01, 0.04}
		cfg.Loads = []float64{0.3, 0.7}
	}
	cfg.Base = base
	r := experiments.Fig8(cfg)
	fmt.Println("time to 100% recall & precision (2 faulty interfaces):")
	fmt.Println("\n(a) vs loss rate at 70% load:")
	fmt.Println("loss_pct  time_s")
	for i, lr := range r.LossRates {
		fmt.Printf("%8.0f  %s\n", lr*100, fmtConv(r.ByLoss[i]))
	}
	fmt.Println("\n(b) vs network load at 1% loss:")
	fmt.Println("load_pct  time_s")
	for i, ld := range r.Loads {
		fmt.Printf("%8.0f  %s\n", ld*100, fmtConv(r.ByLoad[i]))
	}
	fmt.Println("\nhigher loss or load ⇒ alarms arrive faster ⇒ faster convergence (paper Fig. 8)")
}

func fmtConv(t pathdump.Time) string {
	if t < 0 {
		return ">run"
	}
	return fmt.Sprintf("%.0f", t.Seconds())
}

func fig9() {
	r := experiments.Fig9(experiments.Fig9Config{})
	fmt.Println("routing-loop detection via the 3-tag trap (§4.5):")
	fmt.Println("loop_hops  detected  latency_ms  punt_rounds  repeated_link")
	for _, cse := range []experiments.Fig9Case{r.FourHop, r.SixHop} {
		fmt.Printf("%9d  %8v  %10.1f  %11d  %v\n",
			cse.Hops, cse.Detected, float64(cse.Latency)/1e6, cse.Rounds, cse.Repeated)
	}
	fmt.Println("\npaper: ~47 ms (4-hop), ~115 ms (6-hop, one strip-and-reinject round)")
}

func fig10() {
	cfg := experiments.Fig10Config{}
	if *quick {
		cfg.FlowBytes = 1_500_000
		cfg.Duration = 5 * pathdump.Second
	}
	r := experiments.Fig10(cfg)
	fmt.Println("TCP outcast diagnosis (§4.6): 15 senders → 1 receiver")
	fmt.Println("\nFig 10(a) — per-sender goodput at the receiver:")
	fmt.Println("flow  hops  throughput_mbps")
	for i, s := range r.Diagnosis.Senders {
		marker := ""
		if s.Flow == r.Diagnosis.Victim.Flow {
			marker = "  ← victim"
		}
		fmt.Printf("f%-3d  %4d  %15.2f%s\n", i+1, s.Hops, s.ThroughputBps/1e6, marker)
	}
	fmt.Printf("\nalarm sources: %d, watcher fired: %v\n", r.AlarmSources, r.WatcherFired)
	fmt.Printf("victim is the closest sender (outcast profile): %v\n", r.VictimIsClosest)
	fmt.Printf("diagnosis verdict IsOutcast=%v\n", r.Diagnosis.IsOutcast)
}

func scale(r *experiments.ScaleResult) {
	fmt.Println("hosts  direct_resp_s  tree_resp_s  direct_KB  tree_KB")
	for _, p := range r.Points {
		fmt.Printf("%5d  %13.3f  %11.3f  %9.1f  %7.1f\n",
			p.Hosts,
			p.Direct.ResponseTime.Seconds(), p.Tree.ResponseTime.Seconds(),
			float64(p.Direct.WireBytes)/1e3, float64(p.Tree.WireBytes)/1e3)
	}
}

func fig11() {
	cfg := experiments.ScaleConfig{}
	if *quick {
		cfg.Records = 40_000
	}
	r := experiments.Fig11(cfg)
	fmt.Println("flow-size-distribution query scaling (§5.2, 240K TIB entries/host):")
	scale(r)
	fmt.Println("\npaper Fig 11: direct grows with hosts (serial aggregation); multi-level flattens")
}

func fig12() {
	cfg := experiments.ScaleConfig{}
	if *quick {
		cfg.Records = 40_000
		cfg.K = 2_000
	}
	r := experiments.Fig12(cfg)
	fmt.Println("top-10000 query scaling (§5.2):")
	scale(r)
	fmt.Println("\npaper Fig 12: direct response grows ~linearly to ~7s at 112 hosts; tree stays near-flat")
}

func fig13() {
	cfg := experiments.Fig13Config{}
	if *quick {
		cfg.Packets = 60_000
	}
	r := experiments.Fig13(cfg)
	fmt.Println("edge-datapath forwarding throughput (§5.3): PathDump vs vanilla vSwitch")
	fmt.Println("pkt_bytes  vanilla_mpps  pathdump_mpps  vanilla_gbps  pathdump_gbps  overhead_pct")
	for _, row := range r.Rows {
		fmt.Printf("%9d  %12.2f  %13.2f  %12.2f  %13.2f  %12.1f\n",
			row.Size, row.VanillaMpps, row.PathDumpMpps,
			row.VanillaGbps, row.PathDumpGbps, row.OverheadPct)
	}
	fmt.Println("\npaper Fig 13: ≤4% loss vs vanilla DPDK vSwitch; overhead shrinks as packets grow")
}

func table2() {
	rows := experiments.Table2()
	fmt.Println("application support matrix (paper Table 2, PathDump column):")
	for _, r := range rows {
		mark := "✓"
		if !r.Supported {
			mark = "✗"
		}
		fmt.Printf("%s %-32s %s\n    %s\n", mark, r.Application, r.Description, r.Where)
	}
	s, total := experiments.Table2Score()
	fmt.Printf("\nsupported: %d/%d (%.0f%%) — the paper reports \"more than 85%%\"\n",
		s, total, 100*float64(s)/float64(total))
}

func storage() {
	cfg := experiments.StorageConfig{}
	if *quick {
		cfg.Records = 40_000
	}
	r := experiments.Storage(cfg)
	fmt.Println("per-host storage overheads (§5.3):")
	fmt.Printf("TIB records             %d\n", r.Records)
	fmt.Printf("TIB snapshot size       %.1f MB (%.0f B/record)\n",
		float64(r.SnapshotBytes)/1e6, r.BytesPerRecord)
	fmt.Printf("trajectory memory       %d live records\n", r.MemEntries)
	fmt.Printf("trajectory cache        %d paths\n", r.CacheEntries)
	fmt.Printf("hot-state RAM estimate  %.1f MB\n", float64(r.ApproxRAMBytes)/1e6)
	fmt.Println("\npaper: ~110 MB disk per 240K entries, ~10 MB RAM for the hot state")
}
