package tib

import (
	"bytes"
	"testing"

	"pathdump/internal/types"
)

// Where `go test -fuzz` looks for the snapshot fuzzers' seeds.
const (
	loadCorpusDir  = "testdata/fuzz/FuzzLoadSnapshot"
	applyCorpusDir = "testdata/fuzz/FuzzApplyIncremental"
)

// snapshotConfig is the shape of every store the snapshot fuzzers build:
// two stripes, a seal every 16 records.
var snapshotConfig = Config{Shards: 2, SegmentRecords: 16}

// snapshotSource is the writer the seeds are cut from: its first n
// records, the same ones whatever n is, so a store of 90 extends one of
// 60 record for record and sequence for sequence.
func snapshotSource(n int) *Store {
	s := NewStoreConfig(snapshotConfig)
	for i := 0; i < n; i++ {
		p := types.Path{1, types.SwitchID(2 + i%3), 9}
		if i%7 == 0 {
			p = types.Path{1, 2, 3, 2, 3, 4}
		}
		s.Add(mkRecord(flowN(i%11), p, types.Time(i)*10, types.Time(i)*10+types.Time(i%9), uint64(i*i), uint64(i%300)))
	}
	return s
}

// snapshotSeeds are the streams both snapshot fuzzers start from, each
// with the store that wrote it:
//   - "active-tail": a live store's full snapshot, whose last block per
//     shard is the active segment's, encoded on the way out;
//   - "full": a full snapshot of a store restored from that one, which
//     adopted every block as it came (so the two are equal byte for byte);
//   - "incremental": the live store, 30 records on, cut at the watermark
//     of "active-tail" (snapshotBase).
func snapshotSeeds(tb testing.TB) (seeds map[string][]byte, writers map[string]*Store) {
	write := func(s *Store, since uint64) []byte {
		var buf bytes.Buffer
		if err := s.SnapshotSince(&buf, since); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	live := snapshotSource(60)
	tail := write(live, 0)
	everyStripeShips(tb, tail)
	restored := NewStoreConfig(snapshotConfig)
	if err := restored.LoadSnapshot(bytes.NewReader(tail)); err != nil {
		tb.Fatal(err)
	}
	grown := snapshotSource(90)
	seeds = map[string][]byte{"active-tail": tail, "full": write(restored, 0), "incremental": write(grown, live.LastSeq())}
	writers = map[string]*Store{"active-tail": live, "full": restored, "incremental": grown}
	return seeds, writers
}

// snapshotBase is the store an incremental seed applies to: a standby
// that loaded the live store's full snapshot.
func snapshotBase(tb testing.TB, seeds map[string][]byte) *Store {
	s := NewStoreConfig(snapshotConfig)
	if err := s.LoadSnapshot(bytes.NewReader(seeds["active-tail"])); err != nil {
		tb.Fatal(err)
	}
	return s
}

// storeState is what a rejected load must leave as it was.
type storeState struct {
	recs       []entry
	seq        uint64
	n          int
	size       int64
	segs, seal int
}

func stateOf(t *testing.T, s *Store) storeState {
	return storeState{storeScan(t, s, 0, 0, nil, types.AnyLink, types.AllTime), s.LastSeq(), s.Len(), s.SizeBytes(), s.Segments(), s.SealedSegments()}
}

func (st storeState) check(t *testing.T, s *Store, what string) {
	t.Helper()
	now := stateOf(t, s)
	if err := sameEntries(now.recs, st.recs); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if now.seq != st.seq || now.n != st.n || now.size != st.size || now.segs != st.segs || now.seal != st.seal {
		t.Fatalf("%s: seq/len/bytes/segments/sealed %d/%d/%d/%d/%d, were %d/%d/%d/%d/%d", what,
			now.seq, now.n, now.size, now.segs, now.seal, st.seq, st.n, st.size, st.segs, st.seal)
	}
}

// sameScans fails t unless got answers as want does — the full scan,
// every flow's and every link's listed scan, and a full scan from a
// watermark halfway through — and unless both count what they hold and
// keep their sequence counter at or past its newest record.
func sameScans(t *testing.T, got, want *Store, what string) {
	t.Helper()
	all := storeScan(t, want, 0, 0, nil, types.AnyLink, types.AllTime)
	if err := sameEntries(storeScan(t, got, 0, 0, nil, types.AnyLink, types.AllTime), all); err != nil {
		t.Fatalf("%s: full scan: %v", what, err)
	}
	for _, s := range []*Store{got, want} { // the next Add must come after every record held
		if s.Len() != len(all) || (len(all) > 0 && s.LastSeq() < all[len(all)-1].seq) {
			t.Fatalf("%s: Len %d and sequence counter %d over %d records up to seq %d", what, s.Len(), s.LastSeq(), len(all), all[len(all)-1].seq)
		}
	}
	flows, links := map[types.FlowID]bool{}, map[types.LinkID]bool{}
	for _, e := range all {
		flows[e.rec.Flow] = true
		for i := 0; i+1 < len(e.rec.Path); i++ {
			links[types.LinkID{A: e.rec.Path[i], B: e.rec.Path[i+1]}] = true
		}
	}
	ask := func(since uint64, flow *types.FlowID, link types.LinkID) {
		t.Helper()
		if err := sameEntries(storeScan(t, got, since, 0, flow, link, types.AllTime), storeScan(t, want, since, 0, flow, link, types.AllTime)); err != nil {
			t.Fatalf("%s: scan since %d flow %v link %v: %v", what, since, flow, link, err)
		}
	}
	for f := range flows {
		ask(0, &f, types.AnyLink)
	}
	for l := range links {
		ask(0, nil, l)
	}
	if len(all) > 0 {
		ask(all[len(all)/2].seq, nil, types.AnyLink)
	}
}

// rewritten is a fresh store loaded from s's own full snapshot.
func rewritten(t *testing.T, s *Store) *Store {
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot of a loaded store: %v", err)
	}
	again := NewStoreConfig(snapshotConfig)
	if err := again.LoadSnapshot(&buf); err != nil {
		t.Fatalf("a loaded store's own snapshot is rejected: %v", err)
	}
	return again
}

// checkSnapshotPrefixes fails t if load accepts a strict prefix of data
// into a store that target builds — the kind of store data was accepted
// into.
func checkSnapshotPrefixes(t *testing.T, data []byte, target func() *Store, load func(*Store, []byte) error) {
	t.Helper()
	for _, n := range []int{0, len(snapshotMagic), len(snapshotMagic) + 32, len(data) / 2, len(data) - 8, len(data) - 1} {
		if n = max(n, 0); n < len(data) && load(target(), data[:n]) == nil {
			t.Fatalf("strict prefix (%d of %d bytes) of an accepted snapshot accepted", n, len(data))
		}
	}
}

func loadSnapshot(s *Store, data []byte) error { return s.LoadSnapshot(bytes.NewReader(data)) }

func applyIncremental(s *Store, data []byte) error { return s.ApplyIncremental(bytes.NewReader(data)) }

// TestSnapshotSeedCorpus: each snapshot seed is accepted where it should
// be, fresh and as committed — so the committed ones pin the snapshot
// format — and what it loads scans like the store that wrote it. A seed
// missing from testdata is written, so deleting the directories and
// re-running this test regenerates the corpus.
func TestSnapshotSeedCorpus(t *testing.T) {
	seeds, writers := snapshotSeeds(t)
	for name, fresh := range seeds {
		for src, data := range map[string][]byte{
			"fresh":                fresh,
			"committed load seed":  committedSeed(t, loadCorpusDir, name, fresh),
			"committed apply seed": committedSeed(t, applyCorpusDir, name, fresh),
		} {
			full := NewStoreConfig(snapshotConfig)
			err := full.LoadSnapshot(bytes.NewReader(data))
			if (err == nil) != (name != "incremental") {
				t.Fatalf("%s %s: LoadSnapshot: %v", src, name, err)
			}
			if err == nil {
				sameScans(t, full, writers[name], src+" "+name+" loaded")
			}
			standby := snapshotBase(t, seeds)
			if err := standby.ApplyIncremental(bytes.NewReader(data)); err != nil {
				t.Fatalf("%s %s: ApplyIncremental: %v", src, name, err)
			}
			sameScans(t, standby, writers[name], src+" "+name+" applied")
		}
	}
}

// TestSnapshotPastItsCounterRejected (regression, found by
// FuzzApplyIncremental): a stream whose header counter is below its newest
// record. ApplyIncremental kept the lower counter, so the standby's next
// Add was stamped below records it already held; LoadSnapshot quietly
// raised it. A writer captures its counter under every shard lock, after
// every record it ships, so both now refuse the stream and keep the store.
func TestSnapshotPastItsCounterRejected(t *testing.T) {
	seeds, _ := snapshotSeeds(t)
	for name, c := range map[string]struct {
		seq  uint64 // one short of the newest record; the incremental seed's since is 60
		load func(*Store, []byte) error
	}{"full": {59, loadSnapshot}, "incremental": {89, applyIncremental}} {
		data := bytes.Clone(seeds[name])
		le.PutUint64(data[len(snapshotMagic)+8:], c.seq)
		s := snapshotBase(t, seeds)
		before := stateOf(t, s)
		if err := c.load(s, data); err == nil {
			t.Fatalf("%s snapshot with its counter below its records accepted", name)
		}
		before.check(t, s, name)
	}
}

// TestSnapshotTrailingBytesRejected (regression, found by
// FuzzLoadSnapshot): both loaders stopped reading at the terminator, so a
// stream with bytes after it loaded — and so did the strict prefix that
// ends at the terminator. A stream now ends there, and one that goes on
// is refused, the store kept.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	seeds, _ := snapshotSeeds(t)
	for name, load := range map[string]func(*Store, []byte) error{"full": loadSnapshot, "incremental": applyIncremental} {
		s := snapshotBase(t, seeds)
		before := stateOf(t, s)
		if err := load(s, append(bytes.Clone(seeds[name]), 0xfa)); err == nil {
			t.Fatalf("%s snapshot with a byte past its terminator accepted", name)
		}
		before.check(t, s, name)
	}
}

// stripedSnapshot is a full snapshot of a store built by hand: stripe i
// ships the sequence numbers stripes[i], two to a block.
func stripedSnapshot(stripes ...[]uint64) []byte {
	var top uint64
	var buf bytes.Buffer
	var pre [len(snapshotMagic) + 32]byte
	h := pre[copy(pre[:], snapshotMagic):]
	le.PutUint32(h, snapshotVersion)
	le.PutUint32(h[4:], uint32(len(stripes)))
	buf.Write(pre[:])
	blocks := 0
	for shard, seqs := range stripes {
		for len(seqs) > 0 {
			st := getStaging()
			for _, seq := range seqs[:min(2, len(seqs))] {
				rec := mkRecord(flowN(int(seq)), types.Path{1, 2, 9}, types.Time(seq)*10, types.Time(seq)*10+5, seq, 1)
				st.add(seq, &rec)
				top = max(top, seq)
			}
			buf.Write(st.encode(shard))
			st.release()
			seqs = seqs[min(2, len(seqs)):]
			blocks++
		}
	}
	data := buf.Bytes()
	le.PutUint64(data[len(snapshotMagic)+8:], top)
	var end [8]byte
	copy(end[:], snapshotEnd)
	le.PutUint32(end[4:], uint32(blocks))
	return append(data, end[:]...)
}

// TestSnapshotStripesShareNoSequence (regression): the loader checked
// sequence order within each stripe only, so a stream in which two
// stripes both ship the same sequence number loaded — a store with no
// one global arrival order. Both loaders now refuse it and keep the
// store; the same stream with the numbers told apart loads. The
// refused stream is a committed seed of both snapshot fuzzers.
func TestSnapshotStripesShareNoSequence(t *testing.T) {
	seeds, _ := snapshotSeeds(t)
	distinct := stripedSnapshot([]uint64{1, 2, 4}, []uint64{3, 5, 6})
	dup := stripedSnapshot([]uint64{1, 2, 4}, []uint64{3, 4, 5}) // 4: stripe 0's second block, stripe 1's first
	for _, dir := range []string{loadCorpusDir, applyCorpusDir} {
		if got := committedSeed(t, dir, "stripes-share-seq", dup); !bytes.Equal(got, dup) {
			t.Fatalf("%s/stripes-share-seq is not the stream this test builds", dir)
		}
	}
	for name, load := range map[string]func(*Store, []byte) error{"LoadSnapshot": loadSnapshot, "ApplyIncremental": applyIncremental} {
		s := snapshotBase(t, seeds)
		if err := load(s, distinct); err != nil {
			t.Fatalf("%s: stripes with distinct sequences refused: %v", name, err)
		}
		if s.Len() != 6 || s.LastSeq() != 6 {
			t.Fatalf("%s: loaded %d records up to seq %d, want 6 up to 6", name, s.Len(), s.LastSeq())
		}
		s = snapshotBase(t, seeds)
		before := stateOf(t, s)
		if err := load(s, dup); err == nil {
			t.Fatalf("%s: two stripes shipping seq 4 accepted", name)
		}
		before.check(t, s, name)
	}
}

// FuzzLoadSnapshot drives LoadSnapshot with arbitrary bytes onto a store
// that already holds records. It must never panic; a stream it rejects
// leaves the store exactly as it was; a stream it accepts — of which no
// strict prefix is accepted — loads a store that scans exactly like the
// store that wrote it: the seed's writer, and for any stream the loaded
// store itself, through its own snapshot.
func FuzzLoadSnapshot(f *testing.F) {
	seeds, writers := snapshotSeeds(f)
	for _, data := range seeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := snapshotSource(40)
		before := stateOf(t, s)
		if err := s.LoadSnapshot(bytes.NewReader(data)); err != nil {
			before.check(t, s, "a rejected snapshot")
			return
		}
		for name, seed := range seeds {
			if bytes.Equal(data, seed) {
				sameScans(t, s, writers[name], name)
			}
		}
		sameScans(t, rewritten(t, s), s, "rewritten")
		checkSnapshotPrefixes(t, data, func() *Store { return snapshotSource(40) }, loadSnapshot)
	})
}

// FuzzApplyIncremental is FuzzLoadSnapshot for ApplyIncremental, onto
// the standby the incremental seed was cut for: rejected, the standby is
// as it was; accepted, it scans like the seed's writer, like its own
// snapshot reloaded, and no strict prefix of the stream applies.
func FuzzApplyIncremental(f *testing.F) {
	seeds, writers := snapshotSeeds(f)
	for _, data := range seeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := snapshotBase(t, seeds)
		before := stateOf(t, s)
		if err := s.ApplyIncremental(bytes.NewReader(data)); err != nil {
			before.check(t, s, "a rejected delta")
			return
		}
		for name, seed := range seeds {
			if bytes.Equal(data, seed) {
				sameScans(t, s, writers[name], name)
			}
		}
		sameScans(t, rewritten(t, s), s, "rewritten")
		checkSnapshotPrefixes(t, data, func() *Store { return snapshotBase(t, seeds) }, applyIncremental)
	})
}
