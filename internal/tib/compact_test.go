package tib

import (
	"slices"
	"sync"
	"testing"

	"pathdump/internal/types"
)

// fragmentedStore builds a store whose span-sealing leaves many tiny
// sealed segments (one record per 10 ms against a 20 ms span — the
// churn shape compaction exists for), with compaction enabled but not
// yet run.
func fragmentedStore(n int) *Store {
	s := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond, CompactBelow: 128})
	for i := 0; i < n; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		s.Add(mkRecord(flowN(i%97), types.Path{1, types.SwitchID(2 + i%4), 9}, st, st+types.Millisecond, uint64(i), 1))
	}
	return s
}

// TestCompactionReducesSegments: the acceptance check — after churn
// fragments the chains, one compaction pass leaves at least 4x fewer
// sealed segments, and every scan path returns exactly the same records
// in the same global order as before.
func TestCompactionReducesSegments(t *testing.T) {
	s := fragmentedStore(8000)
	before := s.SealedSegments()
	wantAll := scanAll(s)
	f := flowN(13)
	wantPaths := s.Paths(f, types.AnyLink, types.AllTime)
	link := types.LinkID{A: 1, B: 4}
	var wantLink []types.Record
	if err := s.Scan(nil, link, types.AllTime, func(r *types.Record) { wantLink = append(wantLink, *r) }); err != nil {
		t.Fatal(err)
	}
	mid := uint64(len(wantAll) / 2)
	var wantSince []types.Record
	if err := s.ScanSince(mid, 0, nil, types.AnyLink, types.AllTime, func(r *types.Record) bool {
		wantSince = append(wantSince, *r)
		return true
	}); err != nil {
		t.Fatal(err)
	}

	merged, replaced := s.Compact()
	if merged == 0 || replaced <= merged {
		t.Fatalf("Compact merged %d runs from %d segments — nothing happened", merged, replaced)
	}
	after := s.SealedSegments()
	if after*4 > before {
		t.Fatalf("compaction left %d sealed segments of %d — want at least 4x fewer", after, before)
	}
	if s.Compactions() == 0 {
		t.Error("Compactions counter did not advance")
	}

	sameRecords(t, scanAll(s), wantAll, "full scan after compaction")
	gotPaths := s.Paths(f, types.AnyLink, types.AllTime)
	if len(gotPaths) != len(wantPaths) {
		t.Fatalf("flow paths after compaction: %d, want %d", len(gotPaths), len(wantPaths))
	}
	var gotLink []types.Record
	if err := s.Scan(nil, link, types.AllTime, func(r *types.Record) { gotLink = append(gotLink, *r) }); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, gotLink, wantLink, "link-indexed scan after compaction")
	var gotSince []types.Record
	if err := s.ScanSince(mid, 0, nil, types.AnyLink, types.AllTime, func(r *types.Record) bool {
		gotSince = append(gotSince, *r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, gotSince, wantSince, "watermark scan after compaction")

	if s.Len() != len(wantAll) {
		t.Errorf("Len = %d after compaction, want %d", s.Len(), len(wantAll))
	}
}

// TestCompactPlanReusesScratch: planning a pass fills one scratch the
// store keeps, so once it has grown a plan allocates nothing, and the
// pass clears it after each shard's runs commit, so no victim stays
// reachable through it. Each planShard call returns its own shard's runs
// only, also while earlier shards' runs are still held.
func TestCompactPlanReusesScratch(t *testing.T) {
	s := fragmentedStore(2000)
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	held := 0
	for i := range s.shards {
		runs := s.planShard(i, DefaultSegmentRecords)
		for _, r := range runs {
			for _, seg := range r.segs {
				if r.shard != i || !slices.Contains(s.shards[i].segs(), seg) {
					t.Fatalf("planShard(%d) returned a run holding another shard's segment", i)
				}
			}
		}
		if held += len(runs); len(s.plan.runs) != held {
			t.Fatalf("planShard(%d) returned %d runs, the scratch holds %d past the %d before", i, len(runs), len(s.plan.runs), held-len(runs))
		}
	}
	s.plan.release()
	runs := 0
	plan := func() {
		runs = 0
		for i := range s.shards {
			runs += len(s.planShard(i, DefaultSegmentRecords))
			s.plan.release()
		}
	}
	if allocs := testing.AllocsPerRun(5, plan); allocs != 0 || runs == 0 {
		t.Errorf("planning %d runs allocates %.0f times, want 0", runs, allocs)
	}
	s.compactPass()
	for _, seg := range s.plan.segs[:cap(s.plan.segs)] {
		if seg != nil {
			t.Fatal("a pass left a segment in the plan scratch")
		}
	}
	for _, r := range s.plan.runs[:cap(s.plan.runs)] {
		if r.segs != nil || r.blks != nil {
			t.Fatal("a pass left a run in the plan scratch")
		}
	}
}

// TestCompactionDisabledAndThrottled: Compact is a no-op without
// CompactBelow, and MaybeCompact skips until enough seals accumulate.
func TestCompactionDisabledAndThrottled(t *testing.T) {
	off := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond})
	for i := 0; i < 500; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		off.Add(mkRecord(flowN(i%7), types.Path{1, 2}, st, st+1, 1, 1))
	}
	if m, r := off.Compact(); m != 0 || r != 0 {
		t.Fatalf("Compact on disabled store merged %d/%d", m, r)
	}

	on := NewStoreConfig(Config{SegmentSpan: 20 * types.Millisecond, CompactBelow: 128})
	for i := 0; i < 3; i++ { // too few records to seal compactMinSeals segments
		on.Add(mkRecord(flowN(i), types.Path{1, 2}, types.Time(i), types.Time(i)+1, 1, 1))
	}
	if m, _ := on.MaybeCompact(); m != 0 {
		t.Fatalf("MaybeCompact ran below the seal threshold (merged %d)", m)
	}
}

// TestCompactionRacingEviction: a compaction plan whose victims are
// evicted between plan and commit must abandon the merge — the chain is
// left exactly as eviction shaped it, with no resurrected records.
func TestCompactionRacingEviction(t *testing.T) {
	s := fragmentedStore(4000)
	// Plan merges for every shard, but do not commit yet.
	var runs []compactRun
	for i := range s.shards {
		runs = append(runs, s.planShard(i, s.segRecords)...)
	}
	if len(runs) == 0 {
		t.Fatal("no compaction runs planned over a fragmented store")
	}
	built := make([]*segment, len(runs))
	for i, run := range runs {
		built[i] = s.buildMerged(run)
	}

	// Eviction wins the race: drop everything older than the midpoint.
	cutoff := 4000 / 2 * 10 * types.Millisecond
	if segs, _ := s.EvictBefore(cutoff); segs == 0 {
		t.Fatal("eviction freed nothing — cutoff miscalibrated")
	}
	want := scanAll(s)

	// Commits whose victims were evicted must refuse; the rest may land.
	aborted := 0
	for i, run := range runs {
		evicted := false
		for _, seg := range run.segs {
			if seg.maxTime < cutoff {
				evicted = true
			}
		}
		ok := s.commitRun(run, built[i])
		if evicted && ok {
			t.Fatal("commitRun resurrected evicted segments")
		}
		if !ok {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no run overlapped the eviction — race not exercised")
	}
	sameRecords(t, scanAll(s), want, "store after abandoned commits")
}

// TestCompactionConcurrentChurn: compaction, eviction, ingest and scans
// all running at once must preserve the sacred invariant — scans see
// strictly ascending global sequence order — and corrupt no counters.
// Doubles as a race prover under -race.
func TestCompactionConcurrentChurn(t *testing.T) {
	s := NewStoreConfig(Config{SegmentSpan: 10 * types.Millisecond, CompactBelow: 64, Retention: time200ms})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Compact()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var last uint64
			ok := true
			s.ScanSince(0, 0, nil, types.AnyLink, types.AllTime, func(r *types.Record) bool {
				seq := r.Bytes // Bytes carries i, ascending with arrival below
				if seq < last {
					ok = false
					return false
				}
				last = seq
				return true
			})
			if !ok {
				t.Error("scan order regressed during concurrent compaction")
				return
			}
		}
	}()
	for i := 0; i < 30_000; i++ {
		st := types.Time(i) * types.Millisecond
		s.Add(mkRecord(flowN(i%31), types.Path{1, types.SwitchID(2 + i%3), 9}, st, st+1, uint64(i), 1))
		s.EvictBefore(st - time200ms)
	}
	close(stop)
	wg.Wait()
	if s.Len() < 0 || s.SizeBytes() < 0 {
		t.Fatalf("accounting corrupted: Len=%d SizeBytes=%d", s.Len(), s.SizeBytes())
	}
}

const time200ms = 200 * types.Millisecond
