package tib

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/types"
)

// scanAll collects the store's full insertion-order iteration.
func scanAll(s *Store) []types.Record {
	var out []types.Record
	s.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) { out = append(out, *r) })
	return out
}

func sameRecords(t *testing.T, got, want []types.Record, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !recEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d differs: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestSnapshotV2SegmentRoundTrip: a multi-segment store round-trips
// through a snapshot with order, indexes and segment bounds intact — the
// restored store still prunes.
func TestSnapshotV2SegmentRoundTrip(t *testing.T) {
	s := NewStoreConfig(Config{SegmentSpan: types.Second})
	for i := 0; i < 5000; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		s.Add(mkRecord(flowN(i%200), types.Path{1, types.SwitchID(2 + i%4), 9}, st, st+types.Millisecond, uint64(i), 1))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(snapshotMagic)) {
		t.Fatal("snapshot lacks the magic prefix")
	}
	restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(restored), scanAll(s), "round trip")
	if restored.Segments() < s.Segments() {
		t.Errorf("restore collapsed segments: %d, writer had %d", restored.Segments(), s.Segments())
	}
	// Indexes survived: a concrete-link query answers, and a narrow
	// window still prunes most segments.
	if got := restored.Flows(types.LinkID{A: 1, B: 3}, types.AllTime); len(got) == 0 {
		t.Error("restored link index answers nothing")
	}
	sc0, sp0 := restored.SegmentStats()
	restored.Scan(nil, types.AnyLink, types.TimeRange{From: 25 * types.Second, To: 26 * types.Second}, func(*types.Record) {})
	sc1, sp1 := restored.SegmentStats()
	if pruned := sp1 - sp0; pruned == 0 || pruned < (sc1-sc0)*5 {
		t.Errorf("restored store does not prune: %d scanned, %d pruned", sc1-sc0, sp1-sp0)
	}
	// Appends after a restore extend the original arrival order.
	restored.Add(mkRecord(flowN(1), types.Path{1, 2, 9}, 0, 1, 7, 7))
	all := scanAll(restored)
	if all[len(all)-1].Bytes != 7 {
		t.Error("post-restore append did not land at the end of the iteration order")
	}
}

// TestLoadSnapshotAtomic: a broken stream restores nothing — ReadSnapshot
// validates the whole stream before it builds a store, so a mid-stream
// decode error yields an error and no store, never a half-filled one.
func TestLoadSnapshotAtomic(t *testing.T) {
	donor := NewStore()
	for i := 0; i < 2000; i++ {
		donor.Add(mkRecord(flowN(i), types.Path{4, 5, 6}, types.Time(i), types.Time(i+1), 1, 1))
	}
	var snap bytes.Buffer
	if err := donor.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(snap.Bytes())
	flipped[len(flipped)/2] ^= 0x10

	cases := map[string][]byte{
		"truncated mid-stream": snap.Bytes()[:snap.Len()/2],
		"missing terminator":   snap.Bytes()[:snap.Len()-3],
		"bit flipped":          flipped,
		"garbage":              []byte("garbage"),
		"magic only":           []byte(snapshotMagic),
		"empty":                nil,
	}
	for name, blob := range cases {
		if s, err := ReadSnapshot(bytes.NewReader(blob)); err == nil || s != nil {
			t.Fatalf("%s: error %v, a store returned: %t; want an error and no store", name, err, s != nil)
		}
	}
	s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil || s.Len() != donor.Len() {
		t.Fatalf("the intact stream: %v", err)
	}
}

// reseal recomputes a hand-mutated block's checksum, so the mutation —
// not the CRC — is what the validator must catch.
func reseal(b []byte) { le.PutUint32(b[hCRC:], crc32.Checksum(b[hFlags:], crcTable)) }

// TestLoadSnapshotRejectsCorruptSegments: hand-mutated streams with
// lying metadata must be rejected, with no store — bounds narrower than
// the records would cause silent wrong pruning, a posting past the end
// would panic a scan, and a terminator that miscounts must not truncate
// the load quietly. Every mutation is re-checksummed: the structural
// validator has to catch it on its own.
func TestLoadSnapshotRejectsCorruptSegments(t *testing.T) {
	// One sealed two-record block (stripe of flowN(1) in a 1-shard
	// store), framed as a snapshot.
	src := NewStoreConfig(Config{Shards: 1, SegmentRecords: 2})
	src.Add(mkRecord(flowN(1), types.Path{1, 2}, 10, 20, 1, 1))
	src.Add(mkRecord(flowN(2), types.Path{1, 2}, 15, 30, 2, 1))
	src.Add(mkRecord(flowN(3), types.Path{1, 2}, 40, 50, 3, 1)) // seals the first two
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const pre = len(snapshotMagic) + 32
	build := func(mutate func(blk, stream []byte)) []byte {
		stream := bytes.Clone(buf.Bytes())
		blk := stream[pre : pre+int(le.Uint32(stream[pre+hLen:]))]
		mutate(blk, stream)
		reseal(blk)
		return stream
	}
	opened, err := openBlock(build(func(_, _ []byte) {})[pre:][:le.Uint32(buf.Bytes()[pre+hLen:])], true)
	if err != nil || opened.n != 2 || opened.b[hFlags] != 2 {
		t.Fatalf("harness: first block is not the sealed pair: %v", err)
	}
	off := (&layout{n: 2, paths: 1, hops: 2, links: 1, posts: 2, bloom: 8, w: [numCols]uint8{1, 1, 1, 1, 1, 1}}).offsets()
	cases := map[string]func(blk, stream []byte){
		"bounds exclude a record": func(blk, _ []byte) { le.PutUint64(blk[hMaxTime:], 25) },
		"min bound too high":      func(blk, _ []byte) { le.PutUint64(blk[hMinTime:], 22) },
		"shard out of range":      func(blk, _ []byte) { le.PutUint32(blk[hShard:], 1) },
		"seqs not ascending":      func(blk, _ []byte) { blk[off[secSeq]+1] = 0 },
		"seq bounds lie":          func(blk, _ []byte) { le.PutUint64(blk[hSeqHi:], 9) },
		"path id out of range":    func(blk, _ []byte) { blk[off[secPath]] = 1 },
		"flow posting past end":   func(blk, _ []byte) { blk[off[secPerm]] = 5 },
		"flow perm unsorted":      func(blk, _ []byte) { p := blk[off[secPerm]:]; p[0], p[1] = p[1], p[0] },
		"link posting past end":   func(blk, _ []byte) { blk[off[secLinkPost]+1] = 7 },
		"link offsets overrun":    func(blk, _ []byte) { le.PutUint32(blk[off[secLinkOff]+4:], 3) },
		"path offsets overrun":    func(blk, _ []byte) { le.PutUint32(blk[off[secPathOff]+4:], 9) },
		"column width 3":          func(blk, _ []byte) { blk[hWidths+colBytes] = 3 },
		"flags byte not 2":        func(blk, _ []byte) { blk[hFlags] = 0 },
		"length field lies":       func(blk, _ []byte) { le.PutUint32(blk[hLen:], uint32(len(blk)-1)) },
		"terminator miscounts":    func(_, stream []byte) { le.PutUint32(stream[len(stream)-4:], 1) },
		"version from the future": func(_, stream []byte) { stream[len(snapshotMagic)] = 9 },
		"zero shards":             func(_, stream []byte) { le.PutUint32(stream[len(snapshotMagic)+4:], 0) },
	}
	for name, mutate := range cases {
		if s, err := ReadSnapshot(bytes.NewReader(build(mutate))); err == nil || s != nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	// A flipped bit that is not re-checksummed fails on the CRC alone.
	stream := bytes.Clone(buf.Bytes())
	stream[pre+off[secBytes]] ^= 1
	if _, err := ReadSnapshot(bytes.NewReader(stream)); err == nil {
		t.Error("checksum mismatch accepted")
	}
	// The untouched stream is valid — the cases above fail for the
	// mutation, not the harness.
	s, err := ReadSnapshot(bytes.NewReader(build(func(_, _ []byte) {})))
	if err != nil {
		t.Fatalf("control stream rejected: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("control stream loaded %d records", s.Len())
	}
}

// TestSnapshotKeepsWriterStripes: a store of 1, 4 or 16 stripes goes
// through Snapshot and ReadSnapshot into a store of the same stripe
// count, every block in the stripe it came from, so every scan — full,
// per flow, per link and from a watermark — returns the same records in
// the same order, and the restored store snapshots to the same bytes.
func TestSnapshotKeepsWriterStripes(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		src := NewStoreConfig(Config{Shards: shards, SegmentRecords: 64})
		for i := 0; i < 2000; i++ {
			src.Add(mkRecord(flowN(i%150), types.Path{1, types.SwitchID(2 + i%3), 9}, types.Time(i), types.Time(i+1), uint64(i), 1))
		}
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		first := bytes.Clone(buf.Bytes())
		dst, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%d stripes: %v", shards, err)
		}
		if len(dst.shards) != shards {
			t.Fatalf("%d-stripe writer restored into %d stripes", shards, len(dst.shards))
		}
		sameScans(t, dst, src, fmt.Sprintf("%d stripes", shards))
		var again bytes.Buffer
		if err := dst.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first) {
			t.Errorf("%d stripes: the restored store snapshots to %d bytes other than the %d it was read from", shards, again.Len(), len(first))
		}
	}
}

// TestSnapshotUnderConcurrentIngest (-race): snapshotting a store while
// writers append must capture a consistent, downward-closed prefix of
// the arrival order — per writer, a prefix of that writer's adds, in
// that writer's order — restore it intact, and leave no goroutine
// behind.
func TestSnapshotUnderConcurrentIngest(t *testing.T) {
	const writers, perWriter = 8, 3000
	s := NewStoreConfig(Config{SegmentRecords: 256})
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				// SrcIP encodes the writer, SrcPort its per-writer order.
				s.Add(types.Record{
					Flow:  types.FlowID{SrcIP: types.IP(w + 1), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
					Path:  types.Path{1, types.SwitchID(2 + w%4), 9},
					STime: types.Time(i), ETime: types.Time(i + 1),
					Bytes: uint64(i), Pkts: 1,
				})
			}
		}(w)
	}
	close(start)
	var bufs []bytes.Buffer
	bufs = make([]bytes.Buffer, 3)
	for i := range bufs {
		if err := s.Snapshot(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for i := range bufs {
		restored, err := ReadSnapshot(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		next := make([]int, writers+1) // expected SrcPort per writer: prefixes, in order
		n := 0
		restored.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) {
			n++
			w := int(r.Flow.SrcIP)
			if w < 1 || w > writers {
				t.Fatalf("snapshot %d: alien record %v", i, r)
			}
			if int(r.Flow.SrcPort) != next[w] {
				t.Fatalf("snapshot %d: writer %d out of order: got #%d, want #%d", i, w, r.Flow.SrcPort, next[w])
			}
			next[w]++
		})
		if n != restored.Len() {
			t.Fatalf("snapshot %d: scan %d records, Len %d", i, n, restored.Len())
		}
	}

	// The final snapshot after all writers joined must be complete.
	var final bytes.Buffer
	if err := s.Snapshot(&final); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&final)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != writers*perWriter {
		t.Fatalf("final restore = %d records, want %d", restored.Len(), writers*perWriter)
	}

	// Goroutine-leak cleanliness: snapshot/restore start no goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotStripeCountCostsNothing (regression, found by
// FuzzLoadSnapshot): a snapshot's header declares the writer's stripe
// count, which the restored store takes. A 48-byte stream declaring
// 2³¹ stripes and holding no block would ask for a store of that many;
// a count that is not a power of two, or is above the stripe cap, is
// refused before anything is allocated for it.
func TestSnapshotStripeCountCostsNothing(t *testing.T) {
	for _, n := range []uint32{0, 3, 2 * maxShards, 1 << 31, 1<<32 - 1} {
		var pre [len(snapshotMagic) + 32 + 8]byte
		h := pre[copy(pre[:], snapshotMagic):]
		le.PutUint32(h, snapshotVersion)
		le.PutUint32(h[4:], n)
		le.PutUint64(h[8:], 7)
		copy(h[32:], snapshotEnd)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ReadSnapshot(bytes.NewReader(pre[:]))
		runtime.ReadMemStats(&after)
		if err == nil || s != nil {
			t.Errorf("a header declaring %d stripes: error %v, a store returned: %t; want it refused", n, err, s != nil)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("refusing a header of %d stripes allocated %d bytes", n, grew)
		}
	}
	var pre [len(snapshotMagic) + 32 + 8]byte
	h := pre[copy(pre[:], snapshotMagic):]
	le.PutUint32(h, snapshotVersion)
	le.PutUint32(h[4:], maxShards)
	le.PutUint64(h[8:], 7)
	copy(h[32:], snapshotEnd)
	s, err := ReadSnapshot(bytes.NewReader(pre[:]))
	if err != nil || len(s.shards) != maxShards || s.Len() != 0 || s.LastSeq() != 7 {
		t.Fatalf("an empty stream of the cap's %d stripes: %v; want it loaded empty at seq 7", maxShards, err)
	}
}

// TestSnapshotReloadIsByteIdentical: a store loaded from a live store's
// snapshot, under the writer's stripe count, snapshots to the very same
// bytes. Every block of the stream carries its postings, the active
// segments' included, so the loader adopts each as it came and re-encodes
// none.
func TestSnapshotReloadIsByteIdentical(t *testing.T) {
	cfg := Config{Shards: 4, SegmentRecords: 16}
	src := NewStoreConfig(cfg)
	for i := 0; i < 150; i++ {
		f := types.FlowID{SrcIP: types.IP(0x0a000000 + i%23), DstIP: 99, SrcPort: uint16(1000 + 7*(i%23)), DstPort: 80, Proto: 6}
		src.Add(mkRecord(f, types.Path{1, types.SwitchID(2 + i%5), 9}, types.Time(i), types.Time(i+3), uint64(i), 1))
	}
	active := 0
	for i := range src.shards {
		if src.shards[i].active().recs() > 0 {
			active++
		}
	}
	if active < 2 || src.SealedSegments() == 0 {
		t.Fatalf("%d active segments hold records beside %d sealed ones; the stream would not mix both", active, src.SealedSegments())
	}
	snap := func(s *Store) []byte {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := snap(src)
	dst, err := ReadSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := snap(dst); !bytes.Equal(first, second) {
		t.Errorf("snapshot of the reloaded store differs: %d bytes, was %d", len(second), len(first))
	}
	_, blocks, err := readSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		if blk.b[hFlags] != 2 {
			t.Errorf("block %d (shard %d, seq %d..%d) has flags %d, want 2", i, blk.shard, blk.seqLo, blk.seqHi, blk.b[hFlags])
		}
	}
}

// TestSnapshotOldFormatsRefused: streams of the two previous formats
// are refused by their version, before any block is read — v4, whose
// active tails came without postings, and v5, whose blocks were keyed by
// the FNV-1a flow hash. A format-5 block (flags 1) is refused on its own
// too, in a v6 stream and as a cold file: its bloom bits and flow order
// would answer this build's flow scans wrongly, not fail them.
func TestSnapshotOldFormatsRefused(t *testing.T) {
	src := NewStoreConfig(Config{Shards: 1})
	src.Add(mkRecord(flowN(1), types.Path{1, 2}, 0, 1, 1, 1))
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{4, 5} {
		stream := bytes.Clone(buf.Bytes())
		le.PutUint32(stream[len(snapshotMagic):], v)
		_, err := ReadSnapshot(bytes.NewReader(stream))
		if want := fmt.Sprintf("unsupported snapshot version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d stream: %v, want it refused as an unsupported snapshot version", v, err)
		}
	}
	stream := bytes.Clone(buf.Bytes())
	blk := stream[len(snapshotMagic)+32 : len(stream)-8]
	blk[hFlags] = 1
	reseal(blk)
	const want = "flags 1: its bloom and flow order use the retired FNV-1a flow hash"
	if _, err := openBlock(blk, true); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("flags-1 block: %v, want it refused for its flow hash", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v6 stream of a flags-1 block: %v, want it refused for its flow hash", err)
	}
}

// TestDeltaRejections: a stream whose header carries a since word is
// an incremental delta an older build cut, which holds only the records
// past that watermark. It is refused by name, not restored as if it were
// the whole store.
func TestDeltaRejections(t *testing.T) {
	src := NewStoreConfig(Config{Shards: 2})
	for i := 0; i < 20; i++ {
		src.Add(mkRecord(flowN(i), types.Path{1, 2}, types.Time(i), types.Time(i+1), 1, 1))
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if le.Uint64(buf.Bytes()[len(snapshotMagic)+16:]) != 0 {
		t.Fatal("a snapshot was written with a since word")
	}
	for _, since := range []uint64{1, 10, 1 << 40} {
		s, err := ReadSnapshot(bytes.NewReader(withSince(buf.Bytes(), since)))
		if err == nil || s != nil || !strings.Contains(err.Error(), deltaRefusal) {
			t.Fatalf("since %d: error %v, a store returned: %t; want it refused as a delta", since, err, s != nil)
		}
	}
}
