package tib

import (
	"bytes"
	"testing"

	"pathdump/internal/types"
)

// wmRecord builds record i with a distinctive flow and a one-hop path so
// watermark tests can identify exactly which records a scan visited.
func wmRecord(i int) types.Record {
	st := types.Time(i) * types.Millisecond
	return types.Record{
		Flow:  types.FlowID{SrcIP: types.IP(i), DstIP: 1, SrcPort: 100, DstPort: 80, Proto: 6},
		Path:  types.Path{types.SwitchID(0), types.SwitchID(1)},
		STime: st, ETime: st + types.Millisecond,
		Bytes: uint64(i), Pkts: 1,
	}
}

// collectSince gathers the Bytes field (the record's identity in these
// tests) of every record ScanSince visits.
func collectSince(s *Store, since, until uint64, flow *types.FlowID, link types.LinkID) []uint64 {
	var got []uint64
	s.ScanSince(since, until, flow, link, types.AllTime, func(rec *types.Record) bool {
		got = append(got, rec.Bytes)
		return true
	})
	return got
}

func expectSeq(t *testing.T, got []uint64, from, to int) {
	t.Helper()
	if len(got) != to-from+1 {
		t.Fatalf("visited %d records %v, want %d..%d", len(got), got, from, to)
	}
	for i, b := range got {
		if b != uint64(from+i) {
			t.Fatalf("record %d = %d, want %d (full: %v)", i, b, from+i, got)
		}
	}
}

// TestScanSinceSealBoundaries proves incremental evaluation scans only
// post-watermark records and skips whole sealed segments below the
// watermark by bound comparison (they count as pruned, not scanned).
func TestScanSinceSealBoundaries(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: 4})
	for i := 1; i <= 12; i++ {
		s.Add(wmRecord(i))
	}
	// 12 single-shard records with SegmentRecords=4: sealed segments
	// [1..4] [5..8] and [9..12]; a fresh active segment starts at 13.
	if got := s.Segments(); got != 3 {
		t.Fatalf("Segments() = %d, want 3", got)
	}
	if s.LastSeq() != 12 {
		t.Fatalf("LastSeq() = %d, want 12", s.LastSeq())
	}

	sc0, sp0 := s.SegmentStats()
	expectSeq(t, collectSince(s, 8, 0, nil, types.AnyLink), 9, 12)
	sc1, sp1 := s.SegmentStats()
	if scanned := sc1 - sc0; scanned != 1 {
		t.Fatalf("watermark-aligned scan walked %d segments, want 1", scanned)
	}
	if pruned := sp1 - sp0; pruned != 2 {
		t.Fatalf("watermark-aligned scan pruned %d segments, want 2", pruned)
	}

	// A watermark mid-segment enters the straddling segment by binary
	// search: records 6..12, touching segments 2 and 3 only.
	sc0, sp0 = s.SegmentStats()
	expectSeq(t, collectSince(s, 5, 0, nil, types.AnyLink), 6, 12)
	sc1, sp1 = s.SegmentStats()
	if scanned := sc1 - sc0; scanned != 2 {
		t.Fatalf("mid-segment scan walked %d segments, want 2", scanned)
	}
	if pruned := sp1 - sp0; pruned != 1 {
		t.Fatalf("mid-segment scan pruned %d segments, want 1", pruned)
	}

	// An upper bound stops the walk: (4, 8] is exactly the middle segment.
	expectSeq(t, collectSince(s, 4, 8, nil, types.AnyLink), 5, 8)

	// Watermark at the head: everything.
	expectSeq(t, collectSince(s, 0, 0, nil, types.AnyLink), 1, 12)
	// Watermark at the tail: nothing.
	if got := collectSince(s, 12, 0, nil, types.AnyLink); len(got) != 0 {
		t.Fatalf("tail watermark visited %v, want nothing", got)
	}
}

// TestScanSincePostings exercises the indexed flow and link paths: the
// posting lists inside surviving segments are trimmed to the watermark.
func TestScanSincePostings(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: 3})
	f := types.FlowID{SrcIP: 7, DstIP: 1, SrcPort: 100, DstPort: 80, Proto: 6}
	link := types.LinkID{A: 5, B: 6}
	for i := 1; i <= 9; i++ {
		rec := wmRecord(i)
		if i%2 == 1 { // odd records belong to flow f and traverse link 5-6
			rec.Flow = f
			rec.Path = types.Path{5, 6}
		}
		s.Add(rec)
	}
	want := []uint64{7, 9} // odd records past watermark 6
	if got := collectSince(s, 6, 0, &f, types.AnyLink); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("flow scan since 6 visited %v, want %v", got, want)
	}
	if got := collectSince(s, 6, 0, nil, link); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("link scan since 6 visited %v, want %v", got, want)
	}
}

// TestScanSinceAcrossShards checks the merged multi-shard walk stays in
// global insertion order under a watermark.
func TestScanSinceAcrossShards(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 8, SegmentRecords: 4})
	for i := 1; i <= 100; i++ {
		s.Add(wmRecord(i))
	}
	expectSeq(t, collectSince(s, 57, 0, nil, types.AnyLink), 58, 100)
	expectSeq(t, collectSince(s, 57, 80, nil, types.AnyLink), 58, 80)
}

// TestEvictOverBytes proves the byte budget: oldest sealed segments go
// first, the store lands at or under budget, and the active segment
// survives.
func TestEvictOverBytes(t *testing.T) {
	per := recSize(&types.Record{Path: types.Path{0, 1}})
	budget := 6 * per
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: 2, RetentionBytes: budget})
	for i := 1; i <= 12; i++ {
		s.Add(wmRecord(i))
	}
	if s.SizeBytes() != 12*per {
		t.Fatalf("SizeBytes() = %d, want %d", s.SizeBytes(), 12*per)
	}
	segs, recs := s.EvictOverBytes()
	if s.SizeBytes() > budget {
		t.Fatalf("after eviction SizeBytes() = %d over budget %d", s.SizeBytes(), budget)
	}
	if segs != 3 || recs != 6 {
		t.Fatalf("evicted %d segments / %d records, want 3/6", segs, recs)
	}
	// The oldest records went; the newest survive in order.
	expectSeq(t, collectSince(s, 0, 0, nil, types.AnyLink), 7, 12)
	if s.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", s.Len())
	}
	// Under budget the call is a no-op.
	if segs, recs = s.EvictOverBytes(); segs != 0 || recs != 0 {
		t.Fatalf("under-budget eviction freed %d/%d, want 0/0", segs, recs)
	}
}

// TestEvictOverBytesSparesActive: a budget smaller than the live append
// segment cannot evict it; the store stays over budget rather than
// dropping the freshest records.
func TestEvictOverBytesSparesActive(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: 100, RetentionBytes: 1})
	for i := 1; i <= 5; i++ {
		s.Add(wmRecord(i))
	}
	if segs, recs := s.EvictOverBytes(); segs != 0 || recs != 0 {
		t.Fatalf("evicted the active segment: %d segments / %d records", segs, recs)
	}
	if s.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", s.Len())
	}
}

// TestSizeBytesSurvivesSnapshot: a restored store's byte accounting is
// the writer's, sealed blocks and encoded active tails alike, so a byte
// budget keeps working after a snapshot load.
func TestSizeBytesSurvivesSnapshot(t *testing.T) {
	for _, shards := range []int{2, 4} {
		src := NewStoreConfig(Config{Shards: shards, SegmentRecords: 8})
		for i := 1; i <= 50; i++ {
			src.Add(wmRecord(i))
		}
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		dst, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if dst.SizeBytes() != src.SizeBytes() {
			t.Fatalf("%d stripes: restored SizeBytes() = %d, want %d", shards, dst.SizeBytes(), src.SizeBytes())
		}
	}
}

// TestEvictBeforeUpdatesBytes: time-based eviction keeps the byte
// accounting honest too.
func TestEvictBeforeUpdatesBytes(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: 4, Retention: types.Second})
	for i := 1; i <= 12; i++ {
		s.Add(wmRecord(i))
	}
	before := s.SizeBytes()
	_, recs := s.EvictBefore(7 * types.Millisecond) // drops segment [1..4]
	if recs != 4 {
		t.Fatalf("evicted %d records, want 4", recs)
	}
	per := recSize(&types.Record{Path: types.Path{0, 1}})
	if got := s.SizeBytes(); got != before-4*per {
		t.Fatalf("SizeBytes() = %d after time eviction, want %d", got, before-4*per)
	}
}
