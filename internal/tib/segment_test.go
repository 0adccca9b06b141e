package tib

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// recEqual compares records field-wise (Record holds a slice and is not
// directly comparable).
func recEqual(a, b types.Record) bool {
	return a.Flow == b.Flow && a.Path.Equal(b.Path) &&
		a.STime == b.STime && a.ETime == b.ETime &&
		a.Bytes == b.Bytes && a.Pkts == b.Pkts
}

// TestSegmentPruning: a narrow time window over a time-bucketed store
// must skip whole segments by bound intersection — telemetry shows
// pruned ≫ scanned — while returning exactly the records an unsegmented
// full filter would.
func TestSegmentPruning(t *testing.T) {
	seg := NewStoreConfig(Config{SegmentSpan: 10 * types.Second})
	flat := NewStoreConfig(Config{SegmentRecords: -1}) // one unbounded segment per shard
	for i := 0; i < 20_000; i++ {
		rec := mkRecord(flowN(i%500), types.Path{1, 2, 3},
			types.Time(i)*10*types.Millisecond, types.Time(i)*10*types.Millisecond+types.Millisecond,
			uint64(i), 1)
		seg.Add(rec)
		flat.Add(rec)
	}
	if seg.Segments() <= len(seg.shards) {
		t.Fatalf("store did not partition: %d segments over %d shards", seg.Segments(), len(seg.shards))
	}

	// 1% window in the middle of the store's 200 s of data.
	tr := types.TimeRange{From: 100 * types.Second, To: 102 * types.Second}
	var got, want []types.Record
	seg.Scan(nil, types.AnyLink, tr, func(r *types.Record) { got = append(got, *r) })
	flat.Scan(nil, types.AnyLink, tr, func(r *types.Record) { want = append(want, *r) })
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("windowed scan = %d records, unsegmented reference = %d", len(got), len(want))
	}
	for i := range got {
		if !recEqual(got[i], want[i]) {
			t.Fatalf("record %d differs: %v vs %v", i, got[i], want[i])
		}
	}

	scanned, pruned := seg.SegmentStats()
	if pruned == 0 || pruned < scanned*10 {
		t.Errorf("segment pruning ineffective: %d scanned, %d pruned", scanned, pruned)
	}
	if fsc, fpr := flat.SegmentStats(); fpr != 0 {
		t.Errorf("unsegmented store pruned %d of %d — nothing to prune", fpr, fsc)
	}
}

// TestRetentionEviction: EvictBefore drops whole expired sealed segments
// — and only those — reproducing the bounded per-host storage budget.
func TestRetentionEviction(t *testing.T) {
	s := NewStoreConfig(Config{SegmentSpan: types.Second, Retention: 10 * types.Second})
	add := func(i int) {
		s.Add(mkRecord(flowN(i%50), types.Path{1, 2}, types.Time(i)*100*types.Millisecond,
			types.Time(i)*100*types.Millisecond+types.Millisecond, 1, 1))
	}
	for i := 0; i < 1000; i++ { // 100 s of data, 1 s segments
		add(i)
	}
	before := s.Len()
	now := types.Time(1000) * 100 * types.Millisecond
	segs, recs := s.EvictBefore(now - s.Retention())
	if segs == 0 || recs == 0 {
		t.Fatalf("eviction freed nothing (%d segments, %d records)", segs, recs)
	}
	if s.Len() != before-recs {
		t.Fatalf("Len = %d, want %d - %d", s.Len(), before, recs)
	}
	// Everything older than the cutoff is gone; the last Retention's worth
	// (plus at most one segment of slack at the boundary) survives.
	var minSeen types.Time = 1 << 62
	n := 0
	s.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) {
		n++
		if r.STime < minSeen {
			minSeen = r.STime
		}
	})
	if n != s.Len() {
		t.Fatalf("scan found %d records, Len says %d", n, s.Len())
	}
	cutoff := now - s.Retention()
	if minSeen < cutoff-2*types.Second {
		t.Errorf("record from %v survived a cutoff of %v", minSeen, cutoff)
	}
	// Queries over evicted history are simply empty.
	if got := s.Flows(types.AnyLink, types.TimeRange{From: 0, To: 5 * types.Second}); len(got) != 0 {
		t.Errorf("evicted window still answers %d flows", len(got))
	}

	// A cutoff that cannot free a new segment is a cheap no-op.
	if segs, recs := s.EvictBefore(cutoff); segs != 0 || recs != 0 {
		t.Errorf("repeat eviction freed %d segments / %d records", segs, recs)
	}
}

// TestEvictionFollowsExpiry: EvictBefore frees a sealed segment as soon
// as the cutoff passes its newest record, however little the cutoff has
// moved since the last sweep, and a segment sealed after a sweep that
// kept nothing sealed is freed once it expires too.
func TestEvictionFollowsExpiry(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 1, SegmentSpan: types.Second})
	ms := types.Millisecond
	if segs, recs := s.EvictBefore(ms); segs != 0 || recs != 0 {
		t.Fatalf("an empty store freed %d segments / %d records", segs, recs)
	}
	// A record every 100 ms: segment A holds records 0-9 (newest ends
	// at 901 ms), B 10-19 (1901 ms), and 20-24 stay active.
	for i := 0; i < 25; i++ {
		st := types.Time(i) * 100 * ms
		s.Add(mkRecord(flowN(i), types.Path{1, 2}, st, st+ms, 1, 1))
	}
	for _, c := range []struct {
		cutoff     types.Time
		segs, recs int
	}{
		{901 * ms, 0, 0},          // A's newest record ends at the cutoff
		{902 * ms, 1, 10},         // A expired, less than a span after the last sweep
		{1901 * ms, 0, 0},         // B not yet
		{1902 * ms, 1, 10},        // B expired
		{60 * types.Second, 0, 0}, // the active segment stays
	} {
		if segs, recs := s.EvictBefore(c.cutoff); segs != c.segs || recs != c.recs {
			t.Errorf("EvictBefore(%v) freed %d segments / %d records, want %d / %d", c.cutoff, segs, recs, c.segs, c.recs)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d after eviction, want the 5 active records", s.Len())
	}
	// A cutoff nothing has expired under returns without a shard lock.
	s.shards[0].mu.Lock()
	done := make(chan struct{})
	go func() { s.EvictBefore(60 * types.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("EvictBefore waited for a shard lock with nothing expired")
	}
	s.shards[0].mu.Unlock()
	<-done
}

// TestInsertionOrderAcrossSegments: segmentation must not disturb the
// exact global insertion-order iteration, even when record timestamps
// arrive out of order (so segment time bounds overlap).
func TestInsertionOrderAcrossSegments(t *testing.T) {
	s := NewStoreConfig(Config{SegmentRecords: 16})
	rng := rand.New(rand.NewSource(9))
	var want []types.Record
	for i := 0; i < 2000; i++ {
		st := types.Time(rng.Intn(1000)) * types.Millisecond
		rec := mkRecord(flowN(rng.Intn(100)), types.Path{1, types.SwitchID(2 + rng.Intn(4)), 7},
			st, st+types.Millisecond, uint64(i), 1)
		s.Add(rec)
		want = append(want, rec)
	}
	var got []types.Record
	s.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) { got = append(got, *r) })
	if len(got) != len(want) {
		t.Fatalf("scan = %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !recEqual(got[i], want[i]) {
			t.Fatalf("iteration order diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestSegmentedMatchesUnsegmentedProperty: for arbitrary records and
// queries, a finely segmented store and a single-segment store must give
// identical answers — segmentation is an optimisation, never a filter.
func TestSegmentedMatchesUnsegmentedProperty(t *testing.T) {
	seg := NewStoreConfig(Config{SegmentRecords: 8, SegmentSpan: 20})
	flat := NewStoreConfig(Config{SegmentRecords: -1})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		f := flowN(rng.Intn(25))
		p := types.Path{
			types.SwitchID(rng.Intn(4)),
			types.SwitchID(4 + rng.Intn(4)),
			types.SwitchID(8 + rng.Intn(4)),
		}
		st := types.Time(rng.Intn(120))
		rec := mkRecord(f, p, st, st+types.Time(rng.Intn(40)), uint64(rng.Intn(5000)), uint64(rng.Intn(8)))
		seg.Add(rec)
		flat.Add(rec)
	}
	check := func(a, b uint32) bool {
		link := types.LinkID{A: types.SwitchID(a % 5), B: types.SwitchID(4 + b%5)}
		if a%7 == 0 {
			link.A = types.WildcardSwitch
		}
		if b%7 == 0 {
			link.B = types.WildcardSwitch
		}
		tr := types.TimeRange{From: types.Time(a % 80), To: types.Time(a%80 + b%80)}
		fa, fb := seg.Flows(link, tr), flat.Flows(link, tr)
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if fa[i].ID != fb[i].ID || !fa[i].Path.Equal(fb[i].Path) {
				return false // same contents AND same (insertion) order
			}
		}
		f := flowN(int(a % 25))
		ba, ka := seg.Count(types.Flow{ID: f}, tr)
		bb, kb := flat.Count(types.Flow{ID: f}, tr)
		if ba != bb || ka != kb {
			return false
		}
		pa, pb := seg.Paths(f, link, tr), flat.Paths(f, link, tr)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if !pa[i].Equal(pb[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScanFlowPushdown: the flow-predicate path must honour link and time
// filters identically to the generic scan.
func TestScanFlowPushdown(t *testing.T) {
	s := NewStoreConfig(Config{SegmentRecords: 4})
	f, other := flowN(1), flowN(2)
	s.Add(mkRecord(f, types.Path{1, 2, 3}, 0, 10, 100, 1))
	s.Add(mkRecord(other, types.Path{1, 2, 3}, 0, 10, 999, 1))
	s.Add(mkRecord(f, types.Path{1, 4, 3}, 20, 30, 200, 2))
	s.Add(mkRecord(f, types.Path{1, 2, 3}, 40, 50, 400, 4))

	var got []uint64
	s.Scan(&f, types.LinkID{A: 1, B: 2}, types.TimeRange{From: 0, To: 45}, func(r *types.Record) {
		got = append(got, r.Bytes)
	})
	if len(got) != 2 || got[0] != 100 || got[1] != 400 {
		t.Errorf("flow scan = %v, want [100 400]", got)
	}
}

// TestAddAllocs pins what the active segment costs the write path: per
// segment, not per record. 1,024 records of as many flows into one shard
// add a page to its entries a logarithmic number of times (19
// allocations; 61 while a chain index over them grew four more buffers
// and tables, and the posting maps before it allocated 1,104 times here,
// a slice per flow plus the maps' own growth); a shard that holds a
// single record pays less than it did for two maps (856 B per shard on
// this record); and a shard that holds none pays nothing at all: its
// segment starts with its first record.
func TestAddAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	recs := make([]types.Record, 1024)
	for i := range recs {
		recs[i] = mkRecord(flowN(i), types.Path{1, 2, types.SwitchID(3 + i%40), 4, 5}, 0, 1, 1, 1)
	}
	var s *Store
	fill := testing.AllocsPerRun(5, func() {
		s = NewStoreConfig(Config{Shards: 1, SegmentRecords: -1})
		for _, r := range recs {
			s.Add(r)
		}
	})
	t.Logf("%d records into one shard: %.0f allocations", len(recs), fill)
	if fill > 24 || fill/float64(len(recs)) >= 0.1 {
		t.Errorf("%d adds into one shard allocate %.0f times, want O(log n) (≤ 24)", len(recs), fill)
	}

	// One record in each of four shards (flowN's hash reaches no more).
	var one []types.Record
	s = NewStoreConfig(Config{Shards: 16})
	for seen := map[int]bool{}; len(one) < 4; recs = recs[1:] {
		if si := s.stripe(types.StoreHash(recs[0].Flow)); !seen[si] {
			seen[si], one = true, append(one, recs[0])
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range one {
		s.Add(r)
	}
	runtime.ReadMemStats(&after)
	const parentPerShard = 856
	if got := (after.TotalAlloc - before.TotalAlloc) / uint64(len(one)); got > parentPerShard {
		t.Errorf("a shard's first record allocates %d bytes, the posting maps took %d", got, parentPerShard)
	}

	empty := func(shards int) float64 {
		return testing.AllocsPerRun(5, func() { s = NewStoreConfig(Config{Shards: shards}) })
	}
	if per := (empty(64) - empty(16)) / 48; per != 0 || s.ResidentBytes() != 0 {
		t.Errorf("an empty store allocates %.2f times per shard and reports %d resident bytes, want 0 and 0 (2 while every shard held an empty segment)", per, s.ResidentBytes())
	}
	// An idle host's TIB costs its stripes' locks: 3,872 B in 34
	// allocations while every shard held an empty segment.
	const calls = 100
	runtime.ReadMemStats(&before)
	for range calls {
		s = NewStore()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 1024 {
		t.Errorf("NewStore allocates %d B, want < 1 KiB", got)
	}
	if size := unsafe.Sizeof(segment{}); size > 160 {
		t.Errorf("a segment is %d bytes, it was 160 with the two map headers: every sealed segment and every empty shard carries it", size)
	}
}

// TestSealSeedsNextSegment pins what a seal hands the next segment
// (segment.seal). A run of same-sized segments pays, per segment, two
// pages of entries, the segment and its page buffer, and the seal's
// block: a fixed count (8 here; 12 while a chain index beside the
// entries paged its own two buffers, 13 while the buffers were seeded
// at half and regrew by copy), where five buffers and two tables growing
// from nothing took 50. Beside the blocks, the run allocates about what
// its entries hold (1.11 times here; 1.09 times what the entries and a
// chain index's back-references and link cells held, 1.91 while a
// regrowth copied half a segment into a buffer twice its size).
func TestSealSeedsNextSegment(t *testing.T) {
	recs := make([]types.Record, 300)
	for i := range recs {
		recs[i] = mkRecord(flowN(i), types.Path{1, 2, types.SwitchID(3 + i%40), 4, 5}, 0, 1, 1, 1)
	}
	// A GC empties the pool the seal's staging comes from, and refilling
	// it is not what this test counts. Disabling GC waits out a cycle in
	// flight, and the first seal below refills the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Same-sized segments seal by count; a record far off in time seals a
	// short one by span.
	s := NewStoreConfig(Config{Shards: 1, SegmentRecords: len(recs), SegmentSpan: 100})
	for _, r := range recs {
		s.Add(r)
	}
	// Each run's first record seals the segment before it: the first run
	// warms up on the segment that grew from nothing.
	perSegment := testing.AllocsPerRun(5, func() {
		for _, r := range recs {
			s.Add(r)
		}
	})
	t.Logf("a %d-record segment after the first seal: %.0f allocations, block included", len(recs), perSegment)
	// Not under the race detector: it makes sync.Pool drop the seal's
	// staging at random.
	if perSegment > 9 && !testutil.RaceEnabled {
		t.Errorf("a %d-record segment after the first seal allocates %.0f times, want ≤ 9 (50 while every buffer regrew from nothing)", len(recs), perSegment)
	}

	sh := &s.shards[0]
	s.Add(recs[0])                                                         // seals by count
	s.Add(mkRecord(flowN(0), types.Path{1, 2, 3, 4, 5}, 1000, 1001, 1, 1)) // seals the one-record segment by span
	if s.Seals() != 8 || sh.active().recs() != 1 {
		t.Fatalf("rig: %d seals, %d records in the active segment", s.Seals(), sh.active().recs())
	}
	if got := storeScan(t, s, 0, 0, &recs[0].Flow, types.AnyLink, types.AllTime); len(got) != 9 {
		t.Errorf("flow 0 has %d records, want 9", len(got))
	}
	// The bytes, over a fresh run of the same segments.
	s = NewStoreConfig(Config{Shards: 1, SegmentRecords: len(recs)})
	sh = &s.shards[0]
	for range 2 { // the second run seals the segment that grew from nothing
		for _, r := range recs {
			s.Add(r)
		}
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		for _, r := range recs {
			s.Add(r)
		}
	}
	runtime.ReadMemStats(&after)
	held, blocks := len(recs)*int(unsafe.Sizeof(entry{})), 0
	segs := sh.segs()
	for _, seg := range segs[len(segs)-1-runs : len(segs)-1] { // sealed in the runs
		blocks += len(seg.blk.b)
	}
	ratio := float64(int(after.TotalAlloc-before.TotalAlloc)-blocks) / float64(runs*held)
	t.Logf("beside its block, a %d-record segment allocates %.2f times the %d bytes its entries hold", len(recs), ratio, held)
	if ratio > 1.3 && !testutil.RaceEnabled {
		t.Errorf("beside its block, a %d-record segment allocates %.2f times the %d bytes its entries hold, want ≤ 1.3 (1.91 while buffers regrew by copy)", len(recs), ratio, held)
	}
}
