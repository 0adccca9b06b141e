package tib

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"pathdump/internal/types"
)

// benchRecord synthesises record i of a large time-ordered store: 100 K
// distinct flows, 3-hop paths over a small switch set, 1 ms of activity
// per record, one record per millisecond of virtual time. The source
// address is the flow number times an odd 32-bit constant, so the flows
// fill every stripe and consecutive records land in different ones, as
// real five-tuples do, whatever the flow hash makes of small counters.
func benchRecord(i int) types.Record {
	st := types.Time(i) * types.Millisecond
	return types.Record{
		Flow: types.FlowID{SrcIP: types.IP(uint32(i%100_000) * 2654435761), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
		Path: types.Path{
			types.SwitchID(i % 8),
			types.SwitchID(8 + i%8),
			types.SwitchID(16 + i%4),
		},
		STime: st, ETime: st + types.Millisecond,
		Bytes: uint64(i), Pkts: 1,
	}
}

const timeRangeStoreSize = 1_000_000

var (
	trsOnce sync.Once
	trsSeg  *Store // default segmentation: prunes by bounds
	trsFlat *Store // one unbounded segment per shard: the pre-refactor full-filter path
)

func buildTimeRangeStores() {
	trsSeg = NewStore()
	trsFlat = NewStoreConfig(Config{SegmentRecords: -1})
	for i := 0; i < timeRangeStoreSize; i++ {
		rec := benchRecord(i)
		trsSeg.Add(rec)
		trsFlat.Add(rec)
	}
}

// BenchmarkTimeRangeScan: a 1% time window over a 1M-record store. The
// segmented store prunes whole partitions by bound intersection before a
// record is touched; the single-segment store reproduces the pre-refactor
// path — filter all 1M records against the range, from unsealed active
// segments. "sealed" is fullscan's store restored from a snapshot, so
// the same one-segment-per-shard chains are sealed blocks and every
// record is materialised from its columns: the price of the block decode
// next to fullscan's pointer walk. Gated in CI: the pruned/fullscan gap
// is the storage engine's reason to exist.
func BenchmarkTimeRangeScan(b *testing.B) {
	trsOnce.Do(buildTimeRangeStores)
	// The store spans 1000 s of virtual time; scan 10 s from the middle.
	window := types.TimeRange{From: 500 * types.Second, To: 510 * types.Second}
	var snap bytes.Buffer
	if err := trsFlat.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	sealed, err := ReadSnapshot(&snap)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store *Store
	}{
		{"pruned", trsSeg},
		{"fullscan", trsFlat},
		{"sealed", sealed},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				tc.store.Scan(nil, types.AnyLink, window, func(*types.Record) { n++ })
				if n == 0 {
					b.Fatal("empty window")
				}
			}
		})
	}
}

// BenchmarkIncrementalTrigger: one run of an installed (periodic) query
// over a 1M-record store of which only the last 1000 records are new.
// "incremental" is the watermark path continuous monitors use — whole
// sealed segments at or below the watermark are skipped by one sequence
// comparison, so the run touches ~1000 records; "fullscan" reproduces the
// pre-watermark trigger path: rescan the entire TIB every period. Gated
// in CI: the ISSUE's acceptance requires ≥5x between the two medians.
func BenchmarkIncrementalTrigger(b *testing.B) {
	trsOnce.Do(buildTimeRangeStores)
	const delta = 1000
	watermark := uint64(timeRangeStoreSize - delta) // seqs are 1..1M in arrival order
	last := trsSeg.LastSeq()
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			trsSeg.ScanSince(watermark, last, nil, types.AnyLink, types.AllTime, func(*types.Record) bool {
				n++
				return true
			})
			if n != delta {
				b.Fatalf("delta scan visited %d records, want %d", n, delta)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			trsSeg.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) { n++ })
			if n != timeRangeStoreSize {
				b.Fatalf("full scan visited %d records, want %d", n, timeRangeStoreSize)
			}
		}
	})
}

// BenchmarkChurn: the steady state a long-lived agent lives in — records
// arriving forever, retention evicting the old edge, and compaction
// (when enabled) merging the fragment fleet retention leaves behind,
// while a scanner keeps reading the full window. "compacted" runs the
// full engine (CompactBelow set, MaybeCompact on the ingest path, exactly
// as the agent drives it) and pays the merge work inline — its payoff
// is scan-side segment counts, not ingest speed; "fragmented" is the
// same churn with compaction off. Gated in CI so neither shape of the
// sustained add/evict/compact path regresses quietly.
func BenchmarkChurn(b *testing.B) {
	const retainWindow = 2 * types.Second // ~2000 resident records
	for _, tc := range []struct {
		name    string
		compact int
	}{
		{"compacted", 256},
		{"fragmented", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := NewStoreConfig(Config{
				SegmentSpan:  50 * types.Millisecond,
				CompactBelow: tc.compact,
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) {})
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Add(benchRecord(i))
				st := types.Time(i) * types.Millisecond
				s.EvictBefore(st - retainWindow)
				s.MaybeCompact()
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkSnapshotRestore: restoring a large sharded store. "blocks" is
// ReadSnapshot — every block, the active segments' included, is adopted
// as the bytes it arrived in; readd-loop replays the same records through Add (the full ingest path,
// seals included) as the baseline restore has to beat.
func BenchmarkSnapshotRestore(b *testing.B) {
	const records = 200_000
	src := NewStore()
	for i := 0; i < records; i++ {
		src.Add(benchRecord(i))
	}
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	recs := make([]types.Record, 0, records)
	src.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) { recs = append(recs, *r) })

	// Each iteration materialises a fresh ~200 K-record store; collect
	// between iterations so one restore's garbage is not billed to the
	// next (heap-growth noise otherwise dominates the medians).
	gcBetween := func(b *testing.B) {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
	}
	b.Run("blocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gcBetween(b)
			s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != records {
				b.Fatal("short restore")
			}
		}
	})
	b.Run("readd-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gcBetween(b)
			s := NewStore()
			for _, rec := range recs {
				s.Add(rec)
			}
			if s.Len() != records {
				b.Fatal("short restore")
			}
		}
	})
}

// BenchmarkColdThaw: one demand-load of a spilled default-size segment —
// read the file, validate the block, materialise its path table. With
// -benchmem it pins the thaw's allocation at O(1) objects per block.
func BenchmarkColdThaw(b *testing.B) {
	s := NewStoreConfig(Config{Shards: 1, ColdDir: b.TempDir()})
	for i := 0; i <= DefaultSegmentRecords; i++ { // one past the seal threshold
		s.Add(benchRecord(i))
	}
	if segs, recs, err := s.SpillBefore(types.TimeEnd); err != nil || segs != 1 || recs != DefaultSegmentRecords {
		b.Fatalf("spilled %d segments / %d records (err %v), want 1 / %d", segs, recs, err, DefaultSegmentRecords)
	}
	stub := s.shards[0].segs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := s.thaw(stub)
		if err != nil || blk.n != DefaultSegmentRecords {
			b.Fatalf("thaw: %v", err)
		}
	}
}
