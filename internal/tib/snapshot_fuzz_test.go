package tib

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathdump/internal/types"
)

// loadCorpusDir is where `go test -fuzz` looks for FuzzLoadSnapshot's
// seeds.
const loadCorpusDir = "testdata/fuzz/FuzzLoadSnapshot"

// snapshotConfig is the shape of every store the snapshot fuzzer builds:
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

// snapshotSeeds are the streams the snapshot fuzzer starts from, the
// two that load with the store that wrote each:
//   - "active-tail": a live store's snapshot, whose last block per shard
//     is the active segment's, encoded on the way out;
//   - "full": the snapshot of the store ReadSnapshot restores from that
//     one, which adopted every block as it came (so the two are equal
//     byte for byte);
//   - "delta-header": the live store's snapshot with the header's since
//     word set, as an older build marked an incremental delta — refused.
func snapshotSeeds(tb testing.TB) (seeds map[string][]byte, writers map[string]*Store) {
	write := func(s *Store) []byte {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	live := snapshotSource(60)
	tail := write(live)
	everyStripeShips(tb, tail)
	restored, err := ReadSnapshot(bytes.NewReader(tail))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = map[string][]byte{"active-tail": tail, "full": write(restored), "delta-header": withSince(tail, 30)}
	writers = map[string]*Store{"active-tail": live, "full": restored}
	return seeds, writers
}

// withSince is a copy of the stream with its header's since word set.
func withSince(stream []byte, since uint64) []byte {
	out := bytes.Clone(stream)
	le.PutUint64(out[len(snapshotMagic)+16:], since)
	return out
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

// rewritten is ReadSnapshot of s's own snapshot, which must keep s's
// stripe count and snapshot to the very same bytes.
func rewritten(t *testing.T, s *Store) *Store {
	snap := func(s *Store) []byte {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot of a loaded store: %v", err)
		}
		return buf.Bytes()
	}
	first := snap(s)
	again, err := ReadSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("a loaded store's own snapshot is rejected: %v", err)
	}
	if len(again.shards) != len(s.shards) {
		t.Fatalf("restored %d stripes from a %d-stripe writer", len(again.shards), len(s.shards))
	}
	if second := snap(again); !bytes.Equal(first, second) {
		t.Fatalf("a restored store snapshots to %d other bytes than the %d it was read from", len(second), len(first))
	}
	return again
}

// readRefused fails t unless ReadSnapshot refuses data, with no store,
// and returns the refusal.
func readRefused(t *testing.T, data []byte, what string) error {
	t.Helper()
	s, err := ReadSnapshot(bytes.NewReader(data))
	if err == nil || s != nil {
		t.Fatalf("%s: error %v, a store returned: %t; want an error and no store", what, err, s != nil)
	}
	return err
}

// checkSnapshotPrefixes fails t if ReadSnapshot accepts a strict prefix
// of data.
func checkSnapshotPrefixes(t *testing.T, data []byte) {
	t.Helper()
	for _, n := range []int{0, len(snapshotMagic), len(snapshotMagic) + 32, len(data) / 2, len(data) - 8, len(data) - 1} {
		if n = max(n, 0); n < len(data) {
			if _, err := ReadSnapshot(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("strict prefix (%d of %d bytes) of an accepted snapshot accepted", n, len(data))
			}
		}
	}
}

// deltaRefusal is what ReadSnapshot says of a stream an older build cut
// as an incremental delta.
const deltaRefusal = "deltas are no longer read"

// TestSnapshotSeedCorpus: each snapshot seed that should load does, fresh
// and as committed — so the committed ones pin the snapshot format — and
// what it loads scans like the store that wrote it. The committed
// "incremental" seed is a delta an older build cut; it and a full
// stream whose header carries a since word are refused as deltas. A
// loadable seed missing from testdata is written, so deleting the
// directory and re-running this test regenerates those.
func TestSnapshotSeedCorpus(t *testing.T) {
	seeds, writers := snapshotSeeds(t)
	if !bytes.Equal(seeds["full"], seeds["active-tail"]) {
		t.Fatal("the restored store's snapshot differs from the one it was read from")
	}
	for name, w := range writers {
		for src, data := range map[string][]byte{"fresh": seeds[name], "committed": committedSeed(t, loadCorpusDir, name, seeds[name])} {
			s, err := ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s %s: ReadSnapshot: %v", src, name, err)
			}
			sameScans(t, s, w, src+" "+name)
		}
	}
	// An older build cut the committed delta; this one cannot write it again.
	if _, err := os.Stat(filepath.Join(loadCorpusDir, "incremental")); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"committed incremental": committedSeed(t, loadCorpusDir, "incremental", nil),
		"delta-header":          seeds["delta-header"],
	} {
		if err := readRefused(t, data, name); !strings.Contains(err.Error(), deltaRefusal) {
			t.Fatalf("%s: %v, want it refused as a delta", name, err)
		}
	}
}

// TestSnapshotPastItsCounterRejected (regression, found by fuzzing the
// incremental loader): a stream whose header counter is below its newest
// record. The restored store's next Add would be stamped below records it
// already held. A writer captures its counter under every shard lock,
// after every record it ships, so such a stream is refused.
func TestSnapshotPastItsCounterRejected(t *testing.T) {
	seeds, _ := snapshotSeeds(t)
	data := bytes.Clone(seeds["full"])
	le.PutUint64(data[len(snapshotMagic)+8:], 59) // one short of the newest record
	readRefused(t, data, "counter below its records")
}

// TestSnapshotTrailingBytesRejected (regression, found by
// FuzzLoadSnapshot): the loader stopped reading at the terminator, so a
// stream with bytes after it loaded — and so did the strict prefix that
// ends at the terminator. A stream now ends there, and one that goes on
// is refused.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	seeds, _ := snapshotSeeds(t)
	readRefused(t, append(bytes.Clone(seeds["full"]), 0xfa), "a byte past the terminator")
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
// one global arrival order. It is now refused; the same stream with the
// numbers told apart loads. The refused stream is a committed seed of the
// snapshot fuzzer.
func TestSnapshotStripesShareNoSequence(t *testing.T) {
	distinct := stripedSnapshot([]uint64{1, 2, 4}, []uint64{3, 5, 6})
	dup := stripedSnapshot([]uint64{1, 2, 4}, []uint64{3, 4, 5}) // 4: stripe 0's second block, stripe 1's first
	if got := committedSeed(t, loadCorpusDir, "stripes-share-seq", dup); !bytes.Equal(got, dup) {
		t.Fatalf("%s/stripes-share-seq is not the stream this test builds", loadCorpusDir)
	}
	s, err := ReadSnapshot(bytes.NewReader(distinct))
	if err != nil {
		t.Fatalf("stripes with distinct sequences refused: %v", err)
	}
	if s.Len() != 6 || s.LastSeq() != 6 {
		t.Fatalf("loaded %d records up to seq %d, want 6 up to 6", s.Len(), s.LastSeq())
	}
	readRefused(t, dup, "two stripes shipping seq 4")
}

// FuzzLoadSnapshot drives ReadSnapshot with arbitrary bytes. It must never
// panic; a stream it rejects yields no store; a stream it accepts — of
// which no strict prefix is accepted — restores a store that scans
// exactly like the store that wrote it: the seed's writer, and for any
// stream the restored store itself, through its own snapshot, which
// reads back to the same bytes.
func FuzzLoadSnapshot(f *testing.F) {
	seeds, writers := snapshotSeeds(f)
	for _, data := range seeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("a rejected snapshot (%v) yielded a store", err)
			}
			return
		}
		for name, w := range writers {
			if bytes.Equal(data, seeds[name]) {
				sameScans(t, s, w, name)
			}
		}
		sameScans(t, rewritten(t, s), s, "rewritten")
		checkSnapshotPrefixes(t, data)
	})
}
