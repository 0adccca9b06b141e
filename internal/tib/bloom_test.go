package tib

import (
	"bytes"
	"math/rand"
	"testing"

	"pathdump/internal/types"
)

func TestFlowFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		f := newFlowFilter(n)
		flows := make([]types.FlowID, n)
		for i := range flows {
			flows[i] = types.FlowID{
				SrcIP: types.IP(rng.Uint32()), DstIP: types.IP(rng.Uint32()),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Proto: uint8(rng.Uint32()),
			}
			f.add(types.StoreHash(flows[i]))
		}
		for _, fl := range flows {
			if !f.mayContain(types.StoreHash(fl)) {
				t.Fatalf("false negative for %+v (n=%d)", fl, n)
			}
		}
	}
}

func TestFlowFilterFalsePositiveRate(t *testing.T) {
	const n = 1000
	f := newFlowFilter(n)
	for i := 0; i < n; i++ {
		f.add(types.StoreHash(flowN(i)))
	}
	// Probe flows that were never added; at ~8 bits/flow with k=3 the
	// expected rate is ~3%, so 15% is a generous regression bound.
	fp := 0
	const probes = 5000
	for i := 0; i < probes; i++ {
		if f.mayContain(types.StoreHash(flowN(n + 1 + i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.15 {
		t.Errorf("false-positive rate %.3f, want ≤ 0.15", rate)
	}
}

// bloomStore builds a single-shard store whose seal policy yields many
// sealed segments, each holding segRecs records of exactly one flow — the
// shape where bloom pruning pays: a flow query must otherwise consult
// every overlapping segment's posting map.
func bloomStore(t *testing.T, cfg Config, nflows, perFlow int) *Store {
	t.Helper()
	s := NewStoreConfig(cfg)
	for i := 0; i < nflows; i++ {
		for j := 0; j < perFlow; j++ {
			ts := types.Time(i*perFlow + j)
			s.Add(mkRecord(flowN(i), types.Path{1, 10, 2}, ts, ts+1, 100, 1))
		}
	}
	return s
}

func TestBloomPrunesFlowScans(t *testing.T) {
	const nflows, perFlow = 64, 32
	// Single shard + seal every perFlow records: each sealed segment holds
	// one flow, so a single-flow query can bloom-prune all the others.
	s := bloomStore(t, Config{Shards: 1, SegmentRecords: perFlow}, nflows, perFlow)
	if got := s.Segments(); got < nflows-1 {
		t.Fatalf("Segments = %d, want ≥ %d (seal policy not engaging)", got, nflows-1)
	}

	for _, f := range []int{0, nflows / 2, nflows - 1} {
		_, prunedBefore := s.SegmentStats()
		var got int
		fl := flowN(f)
		s.Scan(&fl, types.AnyLink, types.AllTime, func(rec *types.Record) {
			if rec.Flow != flowN(f) {
				t.Fatalf("flow %d scan returned record of %+v", f, rec.Flow)
			}
			got++
		})
		if got != perFlow {
			t.Fatalf("flow %d: got %d records, want %d", f, got, perFlow)
		}
		_, prunedAfter := s.SegmentStats()
		// All segments overlap AllTime and the sequence window, so any
		// pruning here is the bloom's. Expect nearly all foreign segments
		// rejected (a few false positives are fine).
		if d := prunedAfter - prunedBefore; d < nflows/2 {
			t.Errorf("flow %d: pruned %d segments, want ≥ %d (bloom not engaging)", f, d, nflows/2)
		}
	}
}

func TestBloomMissingFlowExact(t *testing.T) {
	// A flow the store never saw: correctness requires zero records no
	// matter what the filters answer, and the common case is that every
	// sealed segment is pruned without a posting lookup.
	s := bloomStore(t, Config{Shards: 1, SegmentRecords: 16}, 32, 16)
	absent := flowN(9999)
	s.Scan(&absent, types.AnyLink, types.AllTime, func(rec *types.Record) {
		t.Fatalf("phantom record %+v for absent flow", rec)
	})
}

func TestBloomSurvivesSnapshotRestore(t *testing.T) {
	for name, cfg := range map[string]Config{
		"one stripe":   {Shards: 1, SegmentRecords: 16},
		"four stripes": {Shards: 4, SegmentRecords: 16},
	} {
		src := bloomStore(t, cfg, 32, 16)
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		dst, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, prunedBefore := dst.SegmentStats()
		var got int
		f5 := flowN(5)
		dst.Scan(&f5, types.AnyLink, types.AllTime, func(rec *types.Record) {
			if rec.Flow != flowN(5) {
				t.Fatalf("%s: wrong flow %+v", name, rec.Flow)
			}
			got++
		})
		if got != 16 {
			t.Fatalf("%s: got %d records, want 16", name, got)
		}
		if _, prunedAfter := dst.SegmentStats(); prunedAfter == prunedBefore {
			t.Errorf("%s: no segments pruned after restore — blooms not rebuilt", name)
		}
	}
}

func TestBloomFlowScanProperty(t *testing.T) {
	// Random records over a small flow universe and an aggressive seal
	// policy; per-flow scans must return exactly the naive filter's
	// answer, in insertion order, regardless of bloom outcomes.
	rng := rand.New(rand.NewSource(42))
	s := NewStoreConfig(Config{Shards: 4, SegmentRecords: 8})
	want := map[types.FlowID][]types.Record{}
	for i := 0; i < 2000; i++ {
		f := flowN(rng.Intn(40))
		ts := types.Time(rng.Intn(1000))
		rec := mkRecord(f, types.Path{1, types.SwitchID(2 + rng.Intn(3)), 9}, ts, ts+1, uint64(i), 1)
		s.Add(rec)
		want[f] = append(want[f], rec)
	}
	for fi := 0; fi < 40; fi++ {
		f := flowN(fi)
		var got []types.Record
		s.Scan(&f, types.AnyLink, types.AllTime, func(rec *types.Record) {
			got = append(got, *rec)
		})
		if len(got) != len(want[f]) {
			t.Fatalf("flow %d: got %d records, want %d", fi, len(got), len(want[f]))
		}
		for i := range got {
			// Bytes is a unique per-record stamp, so it identifies the
			// record and checks insertion order at once.
			if got[i].Bytes != want[f][i].Bytes || got[i].STime != want[f][i].STime {
				t.Fatalf("flow %d record %d mismatch: got %+v want %+v", fi, i, got[i], want[f][i])
			}
		}
	}
}

func TestScanAllocs(t *testing.T) {
	// The merge machinery is pooled: steady-state full scans and flow
	// scans must not allocate per surviving shard or segment. A handful
	// of fixed allocations (closures, the callback header) are fine; what
	// must not appear is O(shards + segments) slice growth.
	s := NewStoreConfig(Config{SegmentRecords: 128})
	for i := 0; i < 8192; i++ {
		ts := types.Time(i)
		s.Add(mkRecord(flowN(i%64), types.Path{1, 10, 2}, ts, ts+1, 1, 1))
	}
	if s.Segments() < 32 {
		t.Fatalf("only %d segments; seal policy not engaging", s.Segments())
	}

	var n int
	sink := func(rec *types.Record) bool { n++; return true }

	full := testing.AllocsPerRun(20, func() {
		n = 0
		s.ScanSince(0, 0, nil, types.AnyLink, types.AllTime, sink)
		if n != 8192 {
			t.Fatalf("full scan saw %d records", n)
		}
	})
	if full > 8 {
		t.Errorf("full scan allocates %.0f objects/op, want ≤ 8 (cursor pooling broken)", full)
	}

	f := flowN(7)
	flow := testing.AllocsPerRun(20, func() {
		n = 0
		s.ScanSince(0, 0, &f, types.AnyLink, types.AllTime, sink)
		if n != 128 {
			t.Fatalf("flow scan saw %d records", n)
		}
	})
	if flow > 8 {
		t.Errorf("flow scan allocates %.0f objects/op, want ≤ 8 (cursor pooling broken)", flow)
	}
}
