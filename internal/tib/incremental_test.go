package tib

import (
	"bytes"
	"errors"
	"testing"

	"pathdump/internal/types"
)

// addBatch appends n records starting at virtual index from, one per
// 10 ms, mirroring the generators elsewhere in this suite.
func addBatch(s *Store, from, n int) {
	for i := from; i < from+n; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		s.Add(mkRecord(flowN(i%61), types.Path{1, types.SwitchID(2 + i%4), 9}, st, st+types.Millisecond, uint64(i), 1))
	}
}

// headerOf reads a snapshot stream (validating it whole) and returns its
// header: Since 0 marks a full snapshot, anything else a delta.
func headerOf(t *testing.T, raw []byte) snapshotHeader {
	t.Helper()
	hdr, _, err := readSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// TestIncrementalCatchUpRounds: a standby assembled from one full pull
// plus repeated SnapshotSince/ApplyIncremental rounds stays record-for-
// record identical to the source, across seal boundaries and re-shipped
// active segments.
func TestIncrementalCatchUpRounds(t *testing.T) {
	src := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	dst := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	addBatch(src, 0, 3000)

	var full bytes.Buffer
	if err := src.SnapshotSince(&full, 0); err != nil {
		t.Fatal(err)
	}
	if hdr := headerOf(t, full.Bytes()); hdr.Since != 0 {
		t.Fatalf("since 0 produced a delta (since %d), want a full snapshot", hdr.Since)
	}
	if err := dst.ApplyIncremental(&full); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(dst), scanAll(src), "initial full pull")

	for round := 0; round < 3; round++ {
		addBatch(src, 3000+round*500, 500)
		watermark := dst.LastSeq()
		var delta bytes.Buffer
		if err := src.SnapshotSince(&delta, watermark); err != nil {
			t.Fatal(err)
		}
		if hdr := headerOf(t, delta.Bytes()); hdr.Since != watermark {
			t.Fatalf("round %d: header %+v, want a delta since %d", round, hdr, watermark)
		}
		if err := dst.ApplyIncremental(&delta); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameRecords(t, scanAll(dst), scanAll(src), "after incremental round")
		if dst.LastSeq() != src.LastSeq() {
			t.Fatalf("round %d: standby seq %d, source %d", round, dst.LastSeq(), src.LastSeq())
		}
		if dst.Len() != src.Len() {
			t.Fatalf("round %d: standby len %d, source %d", round, dst.Len(), src.Len())
		}
	}
}

// TestIncrementalFallsBackPastRetention: a watermark at or below the
// eviction horizon cannot be served as a delta (those records are
// gone), so the writer must ship a full snapshot — and the
// receiver, applying it through the same ApplyIncremental entry point,
// converges anyway.
func TestIncrementalFallsBackPastRetention(t *testing.T) {
	src := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	dst := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	addBatch(src, 0, 2000)
	watermark := src.LastSeq() / 4 // a pull watermark from long ago

	// Retention erases the first half — past the standby's watermark.
	if segs, _ := src.EvictBefore(types.Time(1000) * 10 * types.Millisecond); segs == 0 {
		t.Fatal("eviction freed nothing")
	}
	if src.evictedThroughSeq.Load() < watermark {
		t.Fatalf("eviction watermark %d below pull watermark %d — scenario miscalibrated",
			src.evictedThroughSeq.Load(), watermark)
	}
	var out bytes.Buffer
	if err := src.SnapshotSince(&out, watermark); err != nil {
		t.Fatal(err)
	}
	if hdr := headerOf(t, out.Bytes()); hdr.Since != 0 {
		t.Fatalf("stale watermark produced a delta (since %d), want full fallback", hdr.Since)
	}
	if err := dst.ApplyIncremental(&out); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(dst), scanAll(src), "full fallback past retention")
}

// TestIncrementalDeltaShipsFractionOfFull: the acceptance bound — on a
// 1M-record store where 1% of the data is new since the watermark, the
// delta must cost less than 5% of the full snapshot's bytes.
func TestIncrementalDeltaShipsFractionOfFull(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-record store build is not short")
	}
	src := NewStore()
	const base = 1_000_000
	for i := 0; i < base; i++ {
		src.Add(benchRecord(i))
	}
	watermark := src.LastSeq()
	for i := base; i < base+base/100; i++ {
		src.Add(benchRecord(i))
	}

	var full countingWriter
	if err := src.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	var delta countingWriter
	if err := src.SnapshotSince(&delta, watermark); err != nil {
		t.Fatal(err)
	}
	if delta.n*20 >= full.n {
		t.Fatalf("delta shipped %d bytes, full %d — %.1f%%, want <5%%",
			delta.n, full.n, 100*float64(delta.n)/float64(full.n))
	}
	t.Logf("full %d bytes, 1%% delta %d bytes (%.2f%%)", full.n, delta.n, 100*float64(delta.n)/float64(full.n))
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestDeltaRejections: LoadSnapshot refuses a delta stream loudly,
// and a delta refuses a store it cannot be reconciled with.
func TestDeltaRejections(t *testing.T) {
	src := NewStoreConfig(Config{Shards: 4, SegmentSpan: 20 * types.Millisecond})
	addBatch(src, 0, 1000)
	watermark := src.LastSeq() / 2
	var delta bytes.Buffer
	if err := src.SnapshotSince(&delta, watermark); err != nil {
		t.Fatal(err)
	}
	raw := delta.Bytes()

	// LoadSnapshot must not silently adopt a delta as a whole store.
	if err := NewStore().LoadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("LoadSnapshot accepted an incremental stream")
	}

	// Stripe-count mismatch is unreconcilable: fall back to full.
	other := NewStoreConfig(Config{Shards: 16})
	if err := other.ApplyIncremental(bytes.NewReader(raw)); !errors.Is(err, ErrIncompatibleDelta) {
		t.Fatalf("shape mismatch error = %v, want ErrIncompatibleDelta", err)
	}

	// A store whose local segments straddle the delta's start sequence
	// cannot be cut cleanly: the overlap check refuses.
	straddle := NewStoreConfig(Config{Shards: 4, SegmentSpan: 100 * types.Second})
	addBatch(straddle, 0, 2000) // coarse spans: one local segment covers the delta boundary
	if err := straddle.ApplyIncremental(bytes.NewReader(raw)); !errors.Is(err, ErrIncompatibleDelta) {
		t.Fatalf("straddling store error = %v, want ErrIncompatibleDelta", err)
	}

	// A near-empty store applying a mid-stream delta would be left with a
	// sequence hole: the gap check refuses, forcing a full pull.
	gap := NewStoreConfig(Config{Shards: 4, SegmentSpan: 20 * types.Millisecond})
	if err := gap.ApplyIncremental(bytes.NewReader(raw)); !errors.Is(err, ErrIncompatibleDelta) {
		t.Fatalf("gapped store error = %v, want ErrIncompatibleDelta", err)
	}
}
