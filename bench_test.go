// Benchmarks regenerating the paper's tables and figures (one per
// artifact) plus the ablations called out in DESIGN.md. The figure
// benchmarks run laptop-scaled configurations of the same code paths the
// cmd/experiments harness uses at full size; the ablations isolate the
// design choices (TIB indexes, direct vs multi-level aggregation; the
// trajectory cache's is in internal/agent).
package pathdump_test

import (
	"context"
	"math/rand"
	"pathdump"
	"testing"

	"pathdump/internal/experiments"
	"pathdump/internal/maxcov"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// BenchmarkTable1HostAPI measures the Table-1 host API against a populated
// TIB: getFlows, getPaths and getCount per iteration.
func BenchmarkTable1HostAPI(b *testing.B) {
	c, _ := pathdump.NewFatTree(4, pathdump.Config{})
	hosts := c.HostIDs()
	var flows []pathdump.FlowID
	for i := 0; i < 64; i++ {
		f, err := c.StartFlow(hosts[i%8], hosts[8+(i%8)], 80, int64(5000+i*100), nil)
		if err != nil {
			b.Fatal(err)
		}
		flows = append(flows, f)
	}
	c.RunAll()
	dst := hosts[8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[i%len(flows)]
		host := c.Topo.HostByIP(f.DstIP).ID
		_ = c.GetFlows(host, pathdump.AnyLink, pathdump.AllTime)
		_ = c.GetPaths(host, f, pathdump.AnyLink, pathdump.AllTime)
		_, _ = c.GetCount(host, pathdump.Flow{ID: f}, pathdump.AllTime)
	}
	_ = dst
}

// BenchmarkTable2SupportMatrix covers the application-support audit.
func BenchmarkTable2SupportMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s, total := experiments.Table2Score(); s*100 < 85*total {
			b.Fatal("support regression")
		}
	}
}

// BenchmarkFig5LoadImbalance runs a scaled-down §4.2 ECMP experiment per
// iteration: traffic generation, TIB collection, imbalance windows and the
// multi-level flow-size-distribution query.
func BenchmarkFig5LoadImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(experiments.Fig5Config{
			Duration: 5 * pathdump.Second, LinkBps: 20e6, Seed: int64(i),
		})
		if len(r.Hists) != 2 {
			b.Fatal("missing histograms")
		}
	}
}

// BenchmarkFig6PacketSpray runs the §4.2 spraying split per iteration.
func BenchmarkFig6PacketSpray(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(experiments.Fig6Config{FlowBytes: 500_000, Seed: int64(i)})
		if len(r.Balanced) == 0 {
			b.Fatal("no subflows")
		}
	}
}

// BenchmarkFig7MaxCoverage measures the §4.3 localisation algorithm over
// 1000 accumulated failure signatures.
func BenchmarkFig7MaxCoverage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	faulty := []types.LinkID{{A: 8, B: 16}, {A: 13, B: 19}}
	sigs := make([]maxcov.Signature, 1000)
	for i := range sigs {
		sigs[i] = maxcov.Signature{
			{A: types.SwitchID(rng.Intn(8)), B: types.SwitchID(8 + rng.Intn(4))},
			faulty[rng.Intn(2)],
			{A: types.SwitchID(10 + rng.Intn(4)), B: types.SwitchID(rng.Intn(8))},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hyp := maxcov.LocalizeRobust(sigs, 2)
		if len(hyp) == 0 {
			b.Fatal("empty hypothesis")
		}
	}
}

// BenchmarkFig8Convergence runs one short drop-localisation convergence
// measurement per iteration (the unit of Fig. 8's sweep cells).
func BenchmarkFig8Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(experiments.Fig7Config{
			Faulty: 1, LossRate: 0.04, Load: 0.7, LinkBps: 20e6,
			Duration: 30 * pathdump.Second, Runs: 1, Seed: int64(i),
		})
		_ = r.TimeTo100
	}
}

// BenchmarkFig9LoopDetection measures a full routing-loop detection cycle
// (inject, punt, decode, reinject, conclude).
func BenchmarkFig9LoopDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(experiments.Fig9Config{Seed: int64(i)})
		if !r.FourHop.Detected || !r.SixHop.Detected {
			b.Fatal("loop not detected")
		}
	}
}

// BenchmarkFig10OutcastDiagnosis measures the §4.6 receiver-side diagnosis
// query over a populated cluster.
func BenchmarkFig10OutcastDiagnosis(b *testing.B) {
	c, _ := pathdump.NewFatTree(4, pathdump.Config{Net: pathdump.NetConfig{BandwidthBps: 100e6, QueueBytes: 6000}})
	topo := c.Topo
	recv := topo.HostsAt(topo.ToRID(0, 0))[0]
	for i, h := range topo.Hosts() {
		if h.ID == recv.ID {
			continue
		}
		if _, err := c.StartFlow(h.ID, recv.ID, uint16(5000+i), 500_000, nil); err != nil {
			b.Fatal(err)
		}
	}
	c.Run(5 * pathdump.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.DiagnoseOutcast(recv.IP, pathdump.AllTime)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Senders) == 0 {
			b.Fatal("no senders")
		}
	}
}

// scaleBench shares the Fig. 11/12 machinery: per-host TIBs of `records`
// entries, direct vs multi-level execution.
func scaleBench(b *testing.B, fig func(experiments.ScaleConfig) *experiments.ScaleResult, records, k int) {
	b.Run("direct-vs-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := fig(experiments.ScaleConfig{Records: records, K: k, Hosts: []int{28, 112}})
			d, t := r.Points[1].Direct, r.Points[1].Tree
			if d.ResponseTime <= 0 || t.ResponseTime <= 0 {
				b.Fatal("bad stats")
			}
		}
	})
}

// BenchmarkFig11FSDQuery regenerates the flow-size-distribution scaling
// measurement (reduced TIB size per iteration).
func BenchmarkFig11FSDQuery(b *testing.B) {
	scaleBench(b, experiments.Fig11, 20_000, 0)
}

// BenchmarkFig12TopKQuery regenerates the top-k scaling measurement.
func BenchmarkFig12TopKQuery(b *testing.B) {
	scaleBench(b, experiments.Fig12, 20_000, 2_000)
}

// BenchmarkFig13Datapath measures the edge datapath per packet: the
// PathDump receive path versus the vanilla vSwitch baseline, at the
// paper's extreme packet sizes. b.SetBytes makes Gb/s readable from the
// output (MB/s × 8).
func BenchmarkFig13Datapath(b *testing.B) {
	for _, size := range []int{64, 1500} {
		d := experiments.NewDatapathBench(size, 4000, 1)
		b.Run(benchName("vanilla", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				d.VanillaOne(i)
			}
		})
		b.Run(benchName("pathdump", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				d.PathDumpOne(i)
			}
		})
	}
}

func benchName(kind string, size int) string {
	if size == 64 {
		return kind + "-64B"
	}
	return kind + "-1500B"
}

// BenchmarkStorageSnapshot covers the §5.3 storage measurement: building
// and snapshotting a (reduced) TIB.
func BenchmarkStorageSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Storage(experiments.StorageConfig{Records: 20_000})
		if r.SnapshotBytes == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationTIBIndex isolates the link index: getFlows, which
// walks the link's postings, against a full scan of the same 50 000-record
// store that filters the link in its callback. The trajectory cache's
// ablation lives beside the agent it belongs to (internal/agent).
func BenchmarkAblationTIBIndex(b *testing.B) {
	s := tib.NewStore()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		s.Add(types.Record{
			Flow: types.FlowID{SrcIP: types.IP(i), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Path: types.Path{
				types.SwitchID(rng.Intn(8)),
				types.SwitchID(8 + rng.Intn(8)),
				types.SwitchID(16 + rng.Intn(4)),
			},
			STime: types.Time(i), ETime: types.Time(i + 100),
			Bytes: uint64(i), Pkts: 1,
		})
	}
	link := types.LinkID{A: 3, B: 11}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.Flows(link, types.AllTime); len(got) == 0 {
				b.Fatal("no flows")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var seen types.FlowSet
			var got []types.Flow
			s.Scan(nil, types.AnyLink, types.AllTime, func(rec *types.Record) {
				if !rec.Path.ContainsLink(link) {
					return
				}
				if _, fresh := seen.Add(rec.Flow, rec.Path); fresh {
					got = append(got, types.Flow{ID: rec.Flow, Path: rec.Path})
				}
			})
			if len(got) == 0 {
				b.Fatal("no flows")
			}
		}
	})
}

// BenchmarkQueryExecute measures raw host-side query execution over a
// 50 000-record view (the per-host cost inside every distributed query).
func BenchmarkQueryExecute(b *testing.B) {
	s := tib.NewStore()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50_000; i++ {
		s.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i % 5000), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Path:  types.Path{types.SwitchID(rng.Intn(8)), types.SwitchID(8 + rng.Intn(8)), 20},
			STime: types.Time(i), ETime: types.Time(i + 100),
			Bytes: uint64(rng.Intn(1_000_000)), Pkts: 3,
		})
	}
	v := query.StoreView{S: s}
	for _, q := range []query.Query{
		{Op: query.OpTopK, K: 1000},
		{Op: query.OpFSD, Links: []types.LinkID{{A: 3, B: 11}}, BinBytes: 10_000},
		{Op: query.OpMatrix},
	} {
		b.Run(string(q.Op), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := query.ExecuteContext(context.Background(), q, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
