package experiments

import (
	"testing"

	"pathdump"
)

// These smoke tests run each experiment at a drastically reduced scale and
// assert the paper's qualitative shape — the full-scale runs are
// `go run ./cmd/experiments all`.

func TestFig5Shape(t *testing.T) {
	r := Fig5(Fig5Config{Duration: 30 * pathdump.Second, LinkBps: 50e6, Seed: 1})
	if r.Flows == 0 {
		t.Fatal("no flows generated")
	}
	if len(r.Windows) != 6 {
		t.Fatalf("windows = %d", len(r.Windows))
	}
	// The size-based splitter must push nearly all bytes onto link 1.
	last := r.Windows[len(r.Windows)-1]
	if last.Link1 <= last.Link2 {
		t.Errorf("elephants not concentrated: link1=%d link2=%d", last.Link1, last.Link2)
	}
	// Link 2's recorded flows are all mice; link 1's are mostly ≥1 MB
	// (elephants still in flight at run end record partial byte counts,
	// so the short run cannot reach the full run's 0.98).
	big1, small2 := r.SplitQuality(1_000_000)
	if big1 < 0.5 || small2 < 0.95 {
		t.Errorf("split not sharp: big1=%.2f small2=%.2f", big1, small2)
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(Fig6Config{FlowBytes: 500_000, Seed: 2})
	if len(r.Balanced) != 4 {
		t.Fatalf("balanced spray used %d paths, want 4", len(r.Balanced))
	}
	if r.ImbalancedRate <= r.BalancedRate {
		t.Errorf("bias did not raise imbalance: %.1f%% vs %.1f%%",
			r.ImbalancedRate, r.BalancedRate)
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(Fig7Config{
		Faulty: 1, LossRate: 0.03, Load: 0.7, LinkBps: 20e6,
		Duration: 40 * pathdump.Second, Runs: 1, Seed: 3,
	})
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	final := r.Points[len(r.Points)-1]
	if final.Recall < 1 {
		t.Errorf("recall = %.2f after 40s at 3%% loss", final.Recall)
	}
	if final.Precision < 0.5 {
		t.Errorf("precision = %.2f", final.Precision)
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(Fig9Config{})
	if !r.FourHop.Detected || !r.SixHop.Detected {
		t.Fatal("loops not detected")
	}
	if r.FourHop.Rounds != 1 {
		t.Errorf("4-hop loop needed %d rounds, want 1", r.FourHop.Rounds)
	}
	if r.SixHop.Rounds != 2 {
		t.Errorf("6-hop loop needed %d rounds, want 2", r.SixHop.Rounds)
	}
	// The paper's ratio: the 6-hop loop takes ~2.4× longer (47→115 ms).
	ratio := float64(r.SixHop.Latency) / float64(r.FourHop.Latency)
	if ratio < 1.8 || ratio > 3.2 {
		t.Errorf("6-hop/4-hop latency ratio = %.2f, want ≈2.5", ratio)
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(Fig10Config{FlowBytes: 2_000_000, Duration: 3 * pathdump.Second, Seed: 4})
	if len(r.Diagnosis.Senders) < 10 {
		t.Fatalf("senders = %d", len(r.Diagnosis.Senders))
	}
	if r.AlarmSources == 0 {
		t.Error("no POOR_PERF alarms under heavy incast")
	}
	for _, s := range r.Diagnosis.Senders {
		if s.ThroughputBps <= 0 {
			t.Errorf("sender %v has zero throughput", s.Flow)
		}
	}
}

func TestFig11And12Shape(t *testing.T) {
	cfg := ScaleConfig{Records: 5_000, K: 500, Hosts: []int{28, 112}, Seed: 5}
	for name, fig := range map[string]func(ScaleConfig) *ScaleResult{"fig11": Fig11, "fig12": Fig12} {
		r := fig(cfg)
		if len(r.Points) != 2 {
			t.Fatalf("%s: points = %d", name, len(r.Points))
		}
		small, big := r.Points[0], r.Points[1]
		if big.Direct.ResponseTime <= small.Direct.ResponseTime {
			t.Errorf("%s: direct did not grow with hosts", name)
		}
		growD := float64(big.Direct.ResponseTime) / float64(small.Direct.ResponseTime)
		growT := float64(big.Tree.ResponseTime) / float64(small.Tree.ResponseTime)
		if growT >= growD {
			t.Errorf("%s: tree (%.2fx) grew faster than direct (%.2fx)", name, growT, growD)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13(Fig13Config{Packets: 20_000, Sizes: []int{64, 1500}, Seed: 6})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PathDumpMpps <= 0 || row.VanillaMpps <= 0 {
			t.Fatalf("non-positive throughput: %+v", row)
		}
		if row.PathDumpMpps > row.VanillaMpps {
			t.Errorf("PathDump faster than vanilla at %dB?", row.Size)
		}
	}
	// Bits/s grows with packet size (per-packet cost ~flat).
	if r.Rows[1].PathDumpGbps <= r.Rows[0].PathDumpGbps {
		t.Error("Gb/s did not grow with packet size")
	}
	// At the load point a data packet costs the datapath no allocation:
	// its flow's record is found and bumped in place.
	d := NewDatapathBench(64, 4000, 6)
	for i := 0; i < 4000; i++ {
		d.PathDumpOne(i)
	}
	i := 0
	if allocs := testing.AllocsPerRun(4000, func() { d.PathDumpOne(i); i++ }); allocs != 0 {
		t.Errorf("PathDumpOne allocates %v per data packet, want 0", allocs)
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15 (the paper's Table 2)", len(rows))
	}
	s, total := Table2Score()
	if 100*s < 85*total {
		t.Errorf("support %d/%d below the paper's >85%%", s, total)
	}
	unsupported := 0
	for _, r := range rows {
		if !r.Supported {
			unsupported++
		}
		if r.Where == "" {
			t.Errorf("%s has no implementation pointer", r.Application)
		}
	}
	if unsupported != 2 {
		t.Errorf("unsupported = %d, want 2 (overlay loop, packet modification)", unsupported)
	}
}

func TestStorage(t *testing.T) {
	r := Storage(StorageConfig{Records: 5_000, MemEntries: 500, CacheSize: 512})
	if r.Records == 0 || r.SnapshotBytes == 0 {
		t.Fatal("empty measurement")
	}
	if r.BytesPerRecord < 20 || r.BytesPerRecord > 2000 {
		t.Errorf("bytes/record = %.0f looks wrong", r.BytesPerRecord)
	}
	if r.MemEntries != 500 || r.CacheEntries != 500 {
		t.Errorf("hot state: mem=%d cache=%d", r.MemEntries, r.CacheEntries)
	}
	// By layout: a 96-byte slab cell + an 8-byte flow-index entry (hash,
	// slab index) per open record; a 56-byte value, a 40-byte list
	// element, a 41-byte map entry and five 2-byte hops per cached path. A
	// layout change moves this number (and docs/storage.md's) on purpose.
	if want := 500*104 + 500*(137+10); r.ApproxRAMBytes != want {
		t.Errorf("hot state = %d bytes for 500 records + 500 paths, want %d", r.ApproxRAMBytes, want)
	}
}
