package tib

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathdump/internal/types"
)

// coldStorePair builds two identical stores — one with a cold tier
// rooted in a temp dir, one plain reference — and returns them plus the
// virtual-time cutoff that makes roughly the older half spill.
func coldStorePair(t *testing.T, n int) (cold, ref *Store, cutoff types.Time) {
	t.Helper()
	dir := t.TempDir()
	cold = NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond, ColdDir: dir})
	ref = NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	for i := 0; i < n; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		rec := mkRecord(flowN(i%53), types.Path{1, types.SwitchID(2 + i%4), 9}, st, st+types.Millisecond, uint64(i), 1)
		cold.Add(rec)
		ref.Add(rec)
	}
	return cold, ref, types.Time(n/2) * 10 * types.Millisecond
}

// coldFilesIn counts cold files on disk.
func coldFilesIn(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.cold"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestColdSpillBoundsRAMAndScansStillAnswer: spilling moves the old
// half of the store out of RAM (SizeBytes drops, files appear) while
// every scan path — full merge, single-flow, link-indexed, watermarked
// — still returns exactly what an all-resident store returns.
func TestColdSpillBoundsRAMAndScansStillAnswer(t *testing.T) {
	s, ref, cutoff := coldStorePair(t, 6000)
	resident := s.SizeBytes()
	segs, recs, err := s.SpillBefore(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 || recs == 0 {
		t.Fatalf("SpillBefore spilled %d segments / %d records — nothing moved", segs, recs)
	}
	if got := coldFilesIn(t, s.coldDir); got != segs {
		t.Fatalf("%d cold files on disk for %d spilled segments", got, segs)
	}
	if s.SizeBytes() >= resident {
		t.Fatalf("resident size did not drop: %d -> %d", resident, s.SizeBytes())
	}
	st := s.ColdStats()
	if st.Segments != segs || st.Records != recs || st.Bytes == 0 {
		t.Fatalf("ColdStats = %+v, want %d segments / %d records", st, segs, recs)
	}
	if s.Len() != ref.Len() {
		t.Fatalf("Len = %d after spill, want %d (spilled records still count)", s.Len(), ref.Len())
	}

	sameRecords(t, scanAll(s), scanAll(ref), "full scan over cold tier")
	f := flowN(17)
	if got, want := s.Paths(f, types.AnyLink, types.AllTime), ref.Paths(f, types.AnyLink, types.AllTime); len(got) != len(want) {
		t.Fatalf("flow paths over cold tier: %d, want %d", len(got), len(want))
	}
	link := types.LinkID{A: 1, B: 3}
	var got, want []types.Record
	if err := s.Scan(nil, link, types.AllTime, func(r *types.Record) { got = append(got, *r) }); err != nil {
		t.Fatal(err)
	}
	ref.Scan(nil, link, types.AllTime, func(r *types.Record) { want = append(want, *r) })
	sameRecords(t, got, want, "link scan over cold tier")
	if s.ColdStats().Loads == 0 {
		t.Error("scans over the cold tier recorded no demand-loads")
	}

	// A scan whose window prunes every cold segment must not touch disk.
	loads := s.ColdStats().Loads
	tr := types.TimeRange{From: cutoff + types.Second, To: cutoff + 2*types.Second}
	if err := s.Scan(nil, types.AnyLink, tr, func(*types.Record) {}); err != nil {
		t.Fatal(err)
	}
	if s.ColdStats().Loads != loads {
		t.Error("a hot-window scan demand-loaded cold segments it should have pruned")
	}
}

// TestColdSnapshotCarriesSpilledSegments: Snapshot demand-loads cold
// segments so a snapshot is always the whole store; restoring it
// elsewhere reproduces every record.
func TestColdSnapshotCarriesSpilledSegments(t *testing.T) {
	s, ref, cutoff := coldStorePair(t, 3000)
	if _, _, err := s.SpillBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(restored), scanAll(ref), "restore of a tiered store")
}

// TestColdTruncatedFileTypedError: the satellite case — a truncated
// cold file surfaces as a *ColdReadError from the scan that needed it,
// the fault is counted, and the store stays consistent (prunable scans
// and resident data unaffected).
func TestColdTruncatedFileTypedError(t *testing.T) {
	s, _, cutoff := coldStorePair(t, 4000)
	if _, _, err := s.SpillBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(s.coldDir, "*.cold"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cold files (err %v)", err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	scanErr := s.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) {})
	if scanErr == nil {
		t.Fatal("scan over a truncated cold file returned no error")
	}
	var cre *ColdReadError
	if !errors.As(scanErr, &cre) {
		t.Fatalf("scan error %T (%v), want *ColdReadError", scanErr, scanErr)
	}
	if cre.Path != files[0] {
		t.Errorf("ColdReadError.Path = %q, want %q", cre.Path, files[0])
	}
	if s.ColdStats().Faults == 0 {
		t.Error("fault not counted")
	}

	// Store consistency: counters unchanged, and a window that prunes
	// the cold tier still answers.
	if s.Len() != 4000 {
		t.Errorf("Len = %d after failed scan, want 4000", s.Len())
	}
	tr := types.TimeRange{From: cutoff + types.Second, To: cutoff + 100*types.Second}
	n := 0
	if err := s.Scan(nil, types.AnyLink, tr, func(*types.Record) { n++ }); err != nil {
		t.Fatalf("hot-window scan failed after cold fault: %v", err)
	}
	if n == 0 {
		t.Error("hot window returned nothing")
	}

	// Snapshot needs every segment, so it must surface the same error.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); !errors.As(err, &cre) {
		t.Fatalf("Snapshot over truncated cold file: %v, want *ColdReadError", err)
	}
}

// TestColdEvictionRemovesFiles: retention applies to cold segments too
// — EvictBefore unlinks their files — and a cold segment evicted under
// a scan resolves silently (its data is gone either way), not as an
// error.
func TestColdEvictionRemovesFiles(t *testing.T) {
	s, _, cutoff := coldStorePair(t, 3000)
	if _, _, err := s.SpillBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if n := coldFilesIn(t, s.coldDir); n == 0 {
		t.Fatal("nothing spilled")
	}
	segs, _ := s.EvictBefore(cutoff)
	if segs == 0 {
		t.Fatal("eviction freed no segments")
	}
	if n := coldFilesIn(t, s.coldDir); n != 0 {
		t.Fatalf("%d cold files survived eviction", n)
	}
	if st := s.ColdStats(); st.Segments != 0 || st.Bytes != 0 {
		t.Fatalf("ColdStats after eviction = %+v", st)
	}
	if err := s.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) {}); err != nil {
		t.Fatalf("scan after cold eviction: %v", err)
	}

	// Evicted-under-scan: mark a stub dropped and unlink its file by
	// hand; a scan that captured it must skip it without error.
	s2, _, cutoff2 := coldStorePair(t, 2000)
	if _, _, err := s2.SpillBefore(cutoff2); err != nil {
		t.Fatal(err)
	}
	var stub *segment
	for i := range s2.shards {
		for _, seg := range s2.shards[i].segs() {
			if seg.cold {
				stub = seg
			}
		}
	}
	if stub == nil {
		t.Fatal("no cold stub found")
	}
	stub.dropped.Store(true)
	if err := os.Remove(stub.coldPath); err != nil {
		t.Fatal(err)
	}
	if err := s2.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) {}); err != nil {
		t.Fatalf("scan over a dropped cold segment errored: %v", err)
	}
	if s2.ColdStats().Faults != 0 {
		t.Error("dropped segment counted as a fault")
	}
}
