package tib

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// TestLoopedPathPostedOncePerLink (regression): a record whose path
// traverses a directed link twice — a routing loop, the paper's §4.5 case
// — is one record on that link. The parent posted it once per occurrence,
// so every link-indexed scan visited it twice where a filtered scan
// visits it once. Checked in every state a segment can be in.
func TestLoopedPathPostedOncePerLink(t *testing.T) {
	loop := types.Path{1, 2, 3, 2, 3, 4}
	link := types.LinkID{A: 2, B: 3}
	s := NewStoreConfig(Config{Shards: 1, SegmentSpan: 3, CompactBelow: 8, ColdDir: t.TempDir()})
	for i := 0; i < 10; i++ { // the five even records loop
		p := loop
		if i%2 == 1 {
			p = types.Path{1, 2, 4}
		}
		s.Add(mkRecord(flowN(i), p, types.Time(i), types.Time(i+1), uint64(i), 1))
	}
	stage := func(name string) {
		t.Helper()
		n := 0
		if err := s.Scan(nil, link, types.AllTime, func(*types.Record) { n++ }); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Errorf("%s: the link scan visits %d records on %v, want 5", name, n, link)
		}
	}
	if s.SealedSegments() < 2 {
		t.Fatalf("%d sealed segments; the span seal is not engaging", s.SealedSegments())
	}
	stage("active + sealed")
	if merged, _ := s.Compact(); merged == 0 {
		t.Fatal("nothing compacted")
	}
	stage("compacted")
	if segs, _, err := s.SpillBefore(types.TimeEnd); err != nil || segs == 0 {
		t.Fatalf("spilled %d segments: %v", segs, err)
	}
	stage("thawed")
	if s.ColdStats().Loads == 0 {
		t.Error("the link scan never thawed the spilled segment")
	}
}

// TestResidentBytesPerRecord pins the block's footprint where the ledger
// cannot be run: sealed and compacted, 100k single-record flows on 5-hop
// paths cost at most 80 resident bytes each (the parent's []entry + maps
// held ~205), while the budget's logical charge is unchanged.
func TestResidentBytesPerRecord(t *testing.T) {
	s := NewStoreConfig(Config{Shards: 16, SegmentRecords: 1024, CompactBelow: 2048})
	const n = 100_000
	for i := 0; i < n; i++ {
		path := types.Path{types.SwitchID(i % 16), types.SwitchID(16 + i%4), types.SwitchID(20 + i%2), types.SwitchID(24 + i%4), types.SwitchID(32 + i%16)}
		st := types.Time(i) * types.Millisecond
		s.Add(mkRecord(flowN(i), path, st, st+types.Time(i%5000), uint64(64+i%9000), uint64(1+i%40)))
	}
	for i := range s.shards { // seal the tails too: the claim is about blocks
		if seg := s.shards[i].active(); seg != nil {
			seg.seal(i)
		}
	}
	if merged, _ := s.Compact(); merged != 0 {
		t.Fatalf("compaction merged %d runs of full-size segments", merged)
	}
	per := float64(s.ResidentBytes()) / float64(s.Len())
	t.Logf("%.1f resident B/record over %d segments (logical charge %.1f)", per, s.Segments(), float64(s.SizeBytes())/n)
	if per > 80 {
		t.Errorf("ResidentBytes/Len = %.1f, want ≤ 80", per)
	}
	if got, want := s.SizeBytes(), int64(n*(96+2*5)); got != want {
		t.Errorf("SizeBytes = %d, want the unchanged logical charge %d", got, want)
	}
	// An active segment reports its entries, not a block: each page at its
	// capacity and the page table, by the layout of their elements (a
	// heap measurement of the same thing differs from run to run).
	a := NewStoreConfig(Config{Shards: 1, SegmentRecords: -1})
	want := func() int64 {
		x := a.shards[0].active().entries
		n := int64(unsafe.Sizeof(*x)) + 24*int64(cap(x.more))
		for pg := range x.all {
			n += int64(cap(pg)) * int64(unsafe.Sizeof(entry{}))
			for i := range pg {
				n += 2 * int64(len(pg[i].rec.Path))
			}
		}
		return n
	}
	a.Add(mkRecord(flowN(1), types.Path{1, 2, 3}, 0, 1, 1, 1))
	// One entry and its 3 hops, in a first page: no page table and no
	// index.
	if got, layout := a.ResidentBytes(), int64(80+6+int(unsafe.Sizeof(pages[entry]{}))); got != layout || got != want() {
		t.Errorf("one active record reports %d resident bytes, its entries hold %d (%d by hand)", got, want(), layout)
	}
	for i := 2; i <= 3000; i++ {
		a.Add(mkRecord(flowN(i%700), types.Path{1, types.SwitchID(2 + i%60), 3, types.SwitchID(4 + i%7)}, 0, 1, 1, 1))
	}
	if got := a.ResidentBytes(); got != want() || a.Segments() != 1 {
		t.Errorf("%d active records report %d resident bytes, their entries hold %d", a.Len(), got, want())
	}
}

// TestBlockAllocGuards pins the allocation profile the block exists for:
// a scan over sealed blocks allocates nothing per record, a thaw a fixed
// handful of objects per block, and steady-state ingest — seals included
// — a couple of dozen objects per segment, nothing per record.
func TestBlockAllocGuards(t *testing.T) {
	recs := make([]types.Record, 1<<16+4<<14)
	for i := range recs {
		recs[i] = benchRecord(i)
	}
	s := NewStoreConfig(Config{SegmentRecords: 1024})
	for _, r := range recs[:1<<16] {
		s.Add(r)
	}
	next := 1 << 16
	add := testing.AllocsPerRun(3, func() {
		for _, r := range recs[next : next+1<<14] {
			s.Add(r)
		}
		next += 1 << 14
	}) / (1 << 14)
	t.Logf("steady-state Add: %.4f objects/record", add)
	// 0.0079 on this exact sequence: per 1,024-record segment, two pages
	// of entries seeded from the segment before, the segment and its page
	// buffer, then one block and its path table; the ceiling leaves room
	// for the staging sync.Pool drops at a GC. (0.0118 while a chain index
	// paged two more buffers beside the entries, 0.0216 while the seeded
	// buffers regrew by copy, 0.058 while every buffer regrew from nothing
	// after a seal, 2.156 while the active segment kept two maps of
	// posting slices.)
	ceiling := 0.03
	if testutil.RaceEnabled {
		ceiling = 0.5 // sync.Pool drops the seal's staging at random under the race detector
	}
	if add > ceiling {
		t.Errorf("steady-state Add allocates %.4f objects/record, want per-segment costs only (0.0079, ceiling %.2f)", add, ceiling)
	}

	n := 0
	full := testing.AllocsPerRun(5, func() {
		n = 0
		s.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) { n++ })
	})
	// Per scan, not per record: the pooled cursor list regrows when the
	// pool has dropped it (the race detector makes sync.Pool do so).
	if n != s.Len() || full > 64 {
		t.Errorf("full scan of %d sealed records allocates %.0f objects, want a fixed handful (≤ 64)", n, full)
	}

	cold := NewStoreConfig(Config{Shards: 1, ColdDir: t.TempDir()})
	for i := 0; i <= DefaultSegmentRecords; i++ {
		cold.Add(benchRecord(i))
	}
	if segs, _, err := cold.SpillBefore(types.TimeEnd); err != nil || segs != 1 {
		t.Fatalf("spilled %d segments: %v", segs, err)
	}
	stub := cold.shards[0].segs()[0]
	thaw := testing.AllocsPerRun(5, func() {
		if blk, err := cold.thaw(stub); err != nil || blk.n != DefaultSegmentRecords {
			t.Fatalf("thaw: %v", err)
		}
	})
	if thaw > 16 {
		t.Errorf("thawing one 8,192-record block allocates %.0f objects, want O(1) (≤ 16)", thaw)
	}
}

// blockSeeds builds the fuzz corpus from a real store: a real cold file
// and a real snapshot stream (both accepted), and mutants of each (all
// rejected) — truncated at every section boundary of the cold file's
// block, and with a bit flipped in every section.
func blockSeeds(t testing.TB) (accepted, rejected map[string][]byte) {
	dir := t.TempDir()
	s := NewStoreConfig(Config{Shards: 2, SegmentRecords: 24, ColdDir: dir})
	for i := 0; i < 60; i++ {
		p := types.Path{1, types.SwitchID(2 + i%3), 9}
		if i%7 == 0 {
			p = types.Path{1, 2, 3, 2, 3, 4}
		}
		s.Add(mkRecord(flowN(i%11), p, types.Time(i)*10, types.Time(i)*10+types.Time(i%9), uint64(i*i), uint64(i%300)))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	everyStripeShips(t, snap)
	if _, _, err := s.SpillBefore(types.TimeEnd); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.cold"))
	if len(files) == 0 {
		t.Fatal("nothing spilled")
	}
	cold, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blk, err := openBlock(cold, true)
	if err != nil {
		t.Fatal(err)
	}
	l := layout{n: blk.n, paths: len(blk.paths), hops: int(le.Uint32(cold[hHops:])), links: len(blk.linkTab) / 4,
		posts: blk.linkPost.len(), bloom: len(blk.filter)}
	copy(l.w[:], cold[hWidths:])
	const pre = len(snapshotMagic) + 32
	accepted = map[string][]byte{"cold-file": cold, "snapshot": snap}
	rejected = map[string][]byte{
		"cold-cut-header": cold[:blockHeaderLen-1], "snapshot-cut-preamble": snap[:pre],
		"snapshot-cut-terminator": snap[:len(snap)-8], "snapshot-cut-last-byte": snap[:len(snap)-1],
	}
	offs := l.offsets()
	for sec, off := range offs[:numSecs] { // the last offset is the whole block
		rejected[fmt.Sprintf("cold-cut-section-%02d", sec)] = cold[:off]
		rejected[fmt.Sprintf("snapshot-cut-section-%02d", sec)] = snap[:pre+off]
		for name, src := range accepted {
			m := bytes.Clone(src)
			m[off] ^= 0x04
			rejected[fmt.Sprintf("%s-flip-section-%02d", name, sec)] = m
		}
	}
	return accepted, rejected
}

// everyStripeShips fails unless each stripe of the snapshot ships a
// block: seeds meant to cross stripes must not fill one.
func everyStripeShips(tb testing.TB, snap []byte) {
	tb.Helper()
	hdr, blocks, err := readSnapshot(bytes.NewReader(snap))
	if err != nil {
		tb.Fatal(err)
	}
	shipped := make([]int, hdr.Shards)
	for _, b := range blocks {
		shipped[b.shard]++
	}
	for si, n := range shipped {
		if n == 0 {
			tb.Fatalf("stripe %d of %d ships no block (blocks per stripe: %v)", si, hdr.Shards, shipped)
		}
	}
}

// corpusDir is where `go test -fuzz` looks for FuzzBlockDecode's seeds.
const corpusDir = "testdata/fuzz/FuzzBlockDecode"

// committedSeed returns the seed the corpus file dir/name holds, first
// writing data there, in the fuzz engine's corpus file encoding, when the
// file is missing — so deleting a corpus directory and re-running the
// test that calls this regenerates it.
func committedSeed(t *testing.T, dir, name string, data []byte) []byte {
	t.Helper()
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		raw = []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(path, raw, 0o644)
		}
		t.Logf("wrote missing seed %s", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	seed, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
	if !ok || err != nil {
		t.Fatalf("%s is not a fuzz corpus file: %v", path, err)
	}
	return []byte(seed)
}

// walk reads everything an accepted block offers, the way scans do:
// every record, every flow's and every link's postings. An out-of-range
// access the validator failed to rule out panics here.
func walk(t testing.TB, blk *block) {
	var rec types.Record
	for i := 0; i < blk.n; i++ {
		blk.record(i, &rec)
		blk.filter.mayContain(types.StoreHash(rec.Flow))
		if post := blk.flowPostings(rec.Flow); post.len() == 0 {
			t.Fatalf("record %d's flow has no postings", i)
		}
		for h := 0; h+1 < len(rec.Path); h++ {
			post := blk.linkPostings(types.LinkID{A: rec.Path[h], B: rec.Path[h+1]})
			for k := 0; k < post.len(); k++ {
				blk.seqAt(int(post.at(k)))
			}
		}
	}
}

// TestBlockSeedCorpus: freshly built, the real cold file and snapshot
// are accepted and none of their truncations or bit flips is — in
// particular no strict prefix, at any length, of either. The committed
// corpus under testdata must agree: its two real files were written by
// an earlier build, so accepting them pins the byte format (a format
// change that orphans deployed cold files fails here), and its mutants
// stay rejected. A seed missing from testdata is written, so deleting
// the directory and re-running this test regenerates the corpus.
func TestBlockSeedCorpus(t *testing.T) {
	accepted, rejected := blockSeeds(t)
	check := func(name string, data []byte, want bool) {
		t.Helper()
		blk, berr := openBlock(data, true)
		_, serr := ReadSnapshot(bytes.NewReader(data))
		if got := berr == nil || serr == nil; got != want {
			t.Errorf("%s (%d bytes): accepted=%v, want %v (block: %v; snapshot: %v)", name, len(data), got, want, berr, serr)
		}
		if berr == nil {
			walk(t, blk)
		}
	}
	for _, set := range []struct {
		seeds map[string][]byte
		want  bool
	}{{accepted, true}, {rejected, false}} {
		for name, data := range set.seeds {
			check(name, data, set.want)
			check("committed "+name, committedSeed(t, corpusDir, name, data), set.want)
		}
	}
	cold, snap := accepted["cold-file"], accepted["snapshot"]
	for n := 0; n < len(cold); n++ {
		if _, err := openBlock(cold[:n], true); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte cold file accepted", n, len(cold))
		}
	}
	for n := 0; n < len(snap); n++ {
		if _, _, err := readSnapshot(bytes.NewReader(snap[:n])); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte snapshot accepted", n, len(snap))
		}
	}
}

// FuzzBlockDecode drives the one decoder — openBlock, directly and
// through the snapshot framing — with arbitrary bytes. It must never
// panic or allocate out of proportion to its input, never accept a
// strict prefix of what it accepts, and whatever it accepts must
// re-encode to the same records and survive every access a scan makes.
func FuzzBlockDecode(f *testing.F) {
	accepted, _ := blockSeeds(f) // the mutants are the committed corpus under testdata
	for _, data := range accepted {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blk, err := openBlock(data, true)
		hdr, blocks, serr := readSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if serr == nil {
			for _, b := range blocks {
				if b.shard >= hdr.Shards {
					t.Fatalf("accepted block names shard %d of %d", b.shard, hdr.Shards)
				}
				walk(t, b)
			}
			for _, cut := range []int{len(data) - 1, len(data) - 8, len(data) / 2} {
				if _, _, err := readSnapshot(bytes.NewReader(data[:max(cut, 0)])); err == nil {
					t.Fatalf("strict prefix (%d of %d bytes) of an accepted snapshot accepted", cut, len(data))
				}
			}
		}
		if err != nil {
			return
		}
		walk(t, blk)
		for _, cut := range []int{len(data) - 1, len(data) / 2, blockHeaderLen} {
			if _, err := openBlock(data[:min(max(cut, 0), len(data)-1)], true); err == nil {
				t.Fatalf("strict prefix (%d of %d bytes) of an accepted block accepted", cut, len(data))
			}
		}
		// Round trip: staging the block and encoding it again yields a
		// block with the same records in the same order.
		st := getStaging()
		st.addBlock(blk)
		again := mustOpen(st.encode(blk.shard))
		st.release()
		var a, b types.Record
		for i := 0; i < blk.n; i++ {
			blk.record(i, &a)
			again.record(i, &b)
			if !recEqual(a, b) || blk.seqAt(i) != again.seqAt(i) {
				t.Fatalf("record %d changed across a re-encode: %v → %v", i, &a, &b)
			}
		}
	})
}
