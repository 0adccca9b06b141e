// Snapshot/restore of the segmented TIB (the stand-in for the paper's
// MongoDB persistence).
//
// A snapshot is a 40-byte preamble (magic, format version, the writer's
// stripe count and sequence counter, and the watermark of an incremental
// stream), then the store's blocks back to back — each carries its own
// magic, length, checksum and stripe — then a terminator holding the
// block count, so a stream cut off anywhere never loads as complete.
// Sealed and cold segments ship their block verbatim; each shard's active
// segment, and the unseen suffix of a segment straddling an incremental
// watermark, is encoded on the way out into a block like any other, which
// the loader adopts as it is. docs/storage.md has the bytes.
//
// LoadSnapshot and ApplyIncremental are atomic: the incoming stream is
// fully read and validated into staged segments first, and only then
// swapped in under every shard lock at once. A mid-stream error leaves
// the prior contents untouched, and concurrent readers see either the
// old store or the new one — never a half-cleared mix.
package tib

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"pathdump/internal/types"
)

// ErrIncompatibleDelta reports an incremental snapshot this store
// cannot apply — a stripe-count mismatch, or a gap/overlap between the
// delta and local state. The caller's remedy is a full snapshot pull
// (rpc.StandbyReplica does this automatically).
var ErrIncompatibleDelta = errors.New("tib: incremental snapshot incompatible with local store")

const (
	snapshotMagic   = "PDTIBSN\n"
	snapshotVersion = 6 // after gob records (1), gob segments (2), gob deltas (3), an index flag (4) and FNV-1a blocks (5)
	snapshotEnd     = "PDBE"
	// A block is read in doubling steps from this size up to its declared
	// length, so a corrupt length field cannot make the loader allocate
	// what the stream does not hold.
	readStep = 4 << 10
)

// snapshotHeader follows the magic: four little-endian fields, then
// eight zero bytes, in 32 bytes.
type snapshotHeader struct {
	// Version is snapshotVersion; anything else is refused loudly.
	Version uint32
	// Shards is the writing store's stripe count: a reader with the same
	// count adopts blocks directly, anything else redistributes by flow
	// hash (the mapping depends on the stripe count).
	Shards int
	// Seq is the writer's global sequence counter at capture time, so
	// appends after a restore extend the original arrival order.
	Seq uint64
	// Since is the watermark an incremental stream was cut at: only
	// records with sequence > Since follow. Zero on full snapshots.
	Since uint64
}

// segView is one segment's immutable capture for the writer: a sealed
// segment's block, a cold segment's stub (thawed at encode time, outside
// the shard locks) or the active segment's append-only entries.
type segView struct {
	blk          *block
	cold         *segment
	ents         []entry
	seqLo, seqHi uint64
}

// captureSegments snapshots every shard's segment chain under all shard
// read-locks at once (a consistent, downward-closed prefix of the global
// arrival order, like every scan).
func (s *Store) captureSegments() (views [][]segView, seq uint64) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	views = make([][]segView, len(s.shards))
	for i := range s.shards {
		for _, seg := range s.shards[i].segs {
			if seg.recs() == 0 {
				continue
			}
			v := segView{blk: seg.blk, ents: seg.entries, seqLo: seg.firstSeq(), seqHi: seg.lastSeq()}
			if seg.cold {
				v.cold = seg
			}
			views[i] = append(views[i], v)
		}
	}
	seq = s.seq.Load() // exact: assignment happens under shard locks, all held
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
	return views, seq
}

// Snapshot serialises the whole store, however it is tiered. The capture
// is a momentary all-shard lock hold (header copies only); writing
// streams outside the locks, so concurrent ingest proceeds while a large
// snapshot is written. Cold segments are read back one at a time — a
// cold file that fails validation fails the snapshot with a
// *ColdReadError.
func (s *Store) Snapshot(w io.Writer) error { return s.SnapshotSince(w, 0) }

// SnapshotSince serialises an incremental snapshot: only records with
// arrival sequence greater than since, with Since set in the header. A
// standby that applied a full snapshot at watermark N catches up by
// applying a SnapshotSince(N) stream — see ApplyIncremental.
//
// When the delta cannot be honest, the full snapshot is written instead
// and the receiver detects the difference from the header: since 0 (no
// watermark), since beyond the writer's own sequence counter (the
// watermark is from a different store lineage), or since at or below
// evictedThroughSeq (eviction has destroyed part of the requested range
// — the fallback the "watermark older than retention" case exercises).
func (s *Store) SnapshotSince(w io.Writer, since uint64) error {
	views, seq := s.captureSegments()
	// The eviction watermark is checked after capture: eviction takes
	// every shard write lock, so it either completed before the capture
	// (and is visible here) or starts after it (and the captured
	// references keep their data alive regardless).
	if since > seq || since <= s.evictedThroughSeq.Load() {
		since = 0
	}
	bw := bufio.NewWriter(w)
	var pre [len(snapshotMagic) + 32]byte
	h := pre[copy(pre[:], snapshotMagic):]
	le.PutUint32(h, snapshotVersion)
	le.PutUint32(h[4:], uint32(len(s.shards)))
	le.PutUint64(h[8:], seq)
	le.PutUint64(h[16:], since)
	bw.Write(pre[:]) // a bufio.Writer's error is sticky: Flush reports it
	blocks := 0
	for si, segs := range views {
		for _, v := range segs {
			if v.seqHi <= since {
				continue
			}
			blk := v.blk
			if v.cold != nil {
				var err error
				if blk, err = s.thaw(v.cold); err != nil {
					return err
				}
				if blk == nil {
					continue // evicted while encoding: it is gone either way
				}
			}
			out := []byte(nil)
			if blk != nil && v.seqLo > since {
				out = blk.b // verbatim
			} else {
				// The active segment, or one straddling the watermark
				// (shipped trimmed to its unseen suffix, so a delta's cost
				// tracks the new data): encode it as a seal would.
				st := getStaging()
				if blk != nil {
					st.addBlock(blk, sort.Search(blk.n, func(k int) bool { return blk.seqAt(k) > since }))
				} else {
					for k := sort.Search(len(v.ents), func(k int) bool { return v.ents[k].seq > since }); k < len(v.ents); k++ {
						st.add(v.ents[k].seq, &v.ents[k].rec)
					}
				}
				out = st.encode(si)
				st.release()
			}
			bw.Write(out)
			blocks++
		}
	}
	var end [8]byte
	copy(end[:], snapshotEnd)
	le.PutUint32(end[4:], uint32(blocks))
	bw.Write(end[:])
	return bw.Flush()
}

// readSnapshot reads and validates a whole stream: the header, then every
// block — each through openBlock's validator, named stripe in range, each
// stripe's blocks in sequence order, none past the header's sequence
// counter — up to a terminator that counts them, and last that no two
// stripes ship one sequence number (distinctSeqs).
func readSnapshot(r io.Reader) (hdr snapshotHeader, blocks []*block, err error) {
	br := bufio.NewReader(r)
	var pre [len(snapshotMagic) + 32]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || string(pre[:len(snapshotMagic)]) != snapshotMagic {
		return hdr, nil, fmt.Errorf("tib: not a snapshot (bad magic or shorter than a header)")
	}
	h := pre[len(snapshotMagic):]
	hdr = snapshotHeader{Version: le.Uint32(h), Shards: int(le.Uint32(h[4:])), Seq: le.Uint64(h[8:]), Since: le.Uint64(h[16:])}
	if hdr.Version != snapshotVersion {
		return hdr, nil, fmt.Errorf("tib: unsupported snapshot version %d", hdr.Version)
	}
	if hdr.Shards < 1 {
		return hdr, nil, fmt.Errorf("tib: snapshot declares %d shards", hdr.Shards)
	}
	lastSeq := map[int]uint64{} // per stripe, the newest sequence read so far
	for {
		var head [8]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return hdr, nil, fmt.Errorf("tib: snapshot cut off mid-stream: %w", err)
		}
		n := int(le.Uint32(head[4:]))
		if string(head[:4]) == snapshotEnd {
			if n != len(blocks) {
				return hdr, nil, fmt.Errorf("tib: snapshot terminator counts %d blocks, stream held %d", n, len(blocks))
			}
			if _, err := br.ReadByte(); err != io.EOF {
				// A stream that goes on is not the one the terminator closed.
				return hdr, nil, fmt.Errorf("tib: snapshot has bytes past its terminator")
			}
			if err := distinctSeqs(blocks); err != nil {
				return hdr, nil, err
			}
			return hdr, blocks, nil
		}
		if n < blockHeaderLen {
			return hdr, nil, fmt.Errorf("tib: snapshot block declares %d bytes", n)
		}
		b := make([]byte, min(n, readStep))
		have := copy(b, head[:])
		for have < n {
			if have == len(b) { // exact sizes: the last buffer is the block, no slack
				b = append(make([]byte, 0, min(n, 2*have)), b...)[:min(n, 2*have)]
			}
			if _, err := io.ReadFull(br, b[have:]); err != nil {
				return hdr, nil, fmt.Errorf("tib: snapshot cut off mid-stream: %w", err)
			}
			have = len(b)
		}
		blk, err := openBlock(b, true)
		if err != nil {
			return hdr, nil, err
		}
		if blk.shard >= hdr.Shards {
			return hdr, nil, fmt.Errorf("tib: snapshot block names shard %d of %d", blk.shard, hdr.Shards)
		}
		if blk.seqLo <= lastSeq[blk.shard] {
			return hdr, nil, fmt.Errorf("tib: snapshot shard %d blocks out of sequence order", blk.shard)
		}
		if blk.seqHi > hdr.Seq {
			// The reader's counter resumes from Seq: a record past it would
			// see later Adds stamped below it.
			return hdr, nil, fmt.Errorf("tib: snapshot block reaches seq %d, past the writer's counter %d", blk.seqHi, hdr.Seq)
		}
		lastSeq[blk.shard] = blk.seqHi
		blocks = append(blocks, blk)
	}
}

// distinctSeqs fails when two stripes ship the same sequence number,
// which would leave the loaded store without one global arrival order.
// Each stripe's blocks were checked to ascend, so the stripes' sequence
// columns are walked side by side, a window of mergeWindow numbers at a
// time from the lowest head, as a scan merges them: each stripe marks the
// numbers it holds in the window, and one marked twice ships twice.
func distinctSeqs(blocks []*block) error {
	type cursor struct {
		blk, k int // record k of blocks[blk]
		seq    uint64
	}
	next := make([]int, len(blocks)) // the stripe's next block, -1 after its last
	first := map[int]int{}
	for i := len(blocks) - 1; i >= 0; i-- {
		next[i] = -1
		if j, ok := first[blocks[i].shard]; ok {
			next[i] = j
		}
		first[blocks[i].shard] = i
	}
	cs := make([]cursor, 0, len(first))
	for _, i := range first {
		cs = append(cs, cursor{blk: i, seq: blocks[i].seqLo})
	}
	var used [mergeWindow / 64]uint64
	for {
		base := uint64(seqDone)
		for _, c := range cs {
			base = min(base, c.seq)
		}
		if base == seqDone {
			return nil
		}
		end := base + mergeWindow
		if end < base {
			end = seqDone
		}
		for i := range cs {
			c := &cs[i]
			for c.seq < end {
				off := c.seq - base
				if used[off/64]&(1<<(off%64)) != 0 {
					return fmt.Errorf("tib: snapshot ships sequence %d in two stripes", c.seq)
				}
				used[off/64] |= 1 << (off % 64)
				if c.k++; c.k == blocks[c.blk].n {
					c.blk, c.k = next[c.blk], 0
				}
				if c.seq = seqDone; c.blk >= 0 {
					c.seq = blocks[c.blk].seqAt(c.k)
				}
			}
		}
		clear(used[:])
	}
}

// LoadSnapshot replaces the store contents from a full snapshot. The
// replacement is atomic — see the comment at the top of this file.
func (s *Store) LoadSnapshot(r io.Reader) error {
	hdr, blocks, err := readSnapshot(r)
	if err != nil {
		return err
	}
	if hdr.Since != 0 {
		return fmt.Errorf("tib: stream is an incremental snapshot (since %d); LoadSnapshot needs a full one — use ApplyIncremental", hdr.Since)
	}
	s.loadFull(hdr, blocks)
	return nil
}

// emptyClone builds an empty store with this store's configuration.
func (s *Store) emptyClone() *Store {
	return NewStoreConfig(Config{
		Shards:         len(s.shards),
		SegmentSpan:    s.segSpan,
		SegmentRecords: s.segRecords,
		Retention:      s.retention,
		RetentionBytes: s.retentionBytes,
	})
}

// loadFull stages a full snapshot's blocks and swaps them in. A writer
// with the same stripe count has its blocks adopted as they are; any
// other count changes the flow→shard mapping, so the records are replayed
// in arrival order, original sequence stamps kept, through add.
func (s *Store) loadFull(hdr snapshotHeader, blocks []*block) {
	staged := s.emptyClone()
	source := staged // where the blocks are chained up
	stripe := func(blk *block) int { return blk.shard }
	if hdr.Shards != len(staged.shards) {
		// The replay's merge needs each stripe's chain, not the writer's
		// stripe numbers: the stripes that hold blocks are chained in a
		// store of their own, numbered densely. A store of the header's
		// count would cost what the stream does not pay for — 48 bytes
		// can declare four billion stripes.
		dense := map[int]int{}
		for _, blk := range blocks {
			if _, ok := dense[blk.shard]; !ok {
				dense[blk.shard] = len(dense)
			}
		}
		source = NewStoreConfig(Config{Shards: len(dense)})
		stripe = func(blk *block) int { return dense[blk.shard] }
	}
	total := 0
	for _, blk := range blocks {
		// Insert before the (empty) active segment; readSnapshot checked
		// that each stripe's blocks arrive in chain order.
		sh := &source.shards[stripe(blk)]
		sh.segs = slices.Insert(sh.segs, len(sh.segs)-1, sealedSegment(blk, blk.charge()))
		total += blk.n
	}
	if source != staged {
		source.seq.Store(hdr.Seq) // a scan sees the records its counter has reached
		_ = source.scan(&selector{link: types.AnyLink, tr: types.AllTime}, func(seq uint64, rec *types.Record) bool {
			staged.add(seq, *rec)
			return true
		}) // nothing in source is cold: the scan cannot fail
	}
	staged.seq.Store(hdr.Seq) // readSnapshot checked no record is past it
	staged.count.Store(int64(total))
	s.swapFrom(staged)
}

// swapFrom installs the staged store's contents under every shard lock at
// once, so concurrent readers see the old store or the new one — never a
// mix — and the sequence counter is only ever reset while no Add can be
// in flight. Cold segments of the replaced contents have their files
// removed (marked dropped first, so scans that captured them resolve as
// evicted-under-scan rather than corrupt).
func (s *Store) swapFrom(staged *Store) {
	// Per-segment byte accounting is maintained on every load path, so the
	// store total is the sum over the staged chains. Everything below the
	// smallest staged sequence is unknowable after the swap (the snapshot
	// does not say whether the writer ever had it), so the evicted-through
	// watermark moves there and SnapshotSince refuses deltas reaching
	// below it.
	var bytes int64
	minSeq := staged.seq.Load()
	for i := range staged.shards {
		for _, seg := range staged.shards[i].segs {
			bytes += seg.bytes
			if seg.recs() > 0 {
				minSeq = min(minSeq, seg.firstSeq()-1)
			}
		}
	}
	var coldFiles []string
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		for _, seg := range s.shards[i].segs {
			if seg.cold {
				seg.dropped.Store(true)
				coldFiles = append(coldFiles, seg.coldPath)
			}
		}
		s.shards[i].segs = staged.shards[i].segs
	}
	s.seq.Store(staged.seq.Load())
	s.swaps.Add(1)
	s.count.Store(staged.count.Load())
	s.bytesTotal.Store(bytes)
	s.coldBytesTotal.Store(0)
	s.evictFloor.Store(0)
	s.spillFloor.Store(0)
	s.evictedThroughSeq.Store(minSeq)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	for _, p := range coldFiles {
		os.Remove(p)
	}
}

// ApplyIncremental advances this store from a SnapshotSince stream. The
// stream may turn out to be a full snapshot — the writer falls back to
// full when the requested watermark is unserveable — in which case the
// store is replaced wholesale, exactly as LoadSnapshot would. A delta is
// reconciled per shard: local segments that the delta re-ships grown or
// re-cut (same starting sequence or later) are dropped and replaced;
// strictly older local segments are kept, so a standby may retain more
// lookback than the agent it mirrors.
//
// Like LoadSnapshot, application is atomic: the delta is fully read and
// validated first, and installed under every shard lock at once. A
// reconciliation that cannot be proven consistent (stripe mismatch,
// overlapping sequence ranges) fails with ErrIncompatibleDelta and
// leaves the store untouched — the caller re-pulls a full snapshot.
func (s *Store) ApplyIncremental(r io.Reader) error {
	hdr, blocks, err := readSnapshot(r)
	if err != nil {
		return err
	}
	if hdr.Since == 0 {
		s.loadFull(hdr, blocks) // writer fell back to full
		return nil
	}
	if hdr.Shards != len(s.shards) {
		return fmt.Errorf("%w: delta written for %d shards, store has %d", ErrIncompatibleDelta, hdr.Shards, len(s.shards))
	}
	// Stage: every block becomes a ready segment, grouped by shard,
	// before any lock is taken.
	incoming := make([][]*segment, len(s.shards))
	for _, blk := range blocks {
		incoming[blk.shard] = append(incoming[blk.shard], sealedSegment(blk, blk.charge()))
	}

	// Install under every shard lock at once, like swapFrom, so readers
	// see the store before or after the delta — never mid-application.
	var addedRecs, droppedRecs int64
	var addedBytes, droppedBytes, droppedCold int64
	var coldFiles []string
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	unlock := func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
	// A delta that starts beyond everything this store holds would leave
	// a hole between the local data and the shipped segments. With every
	// shard lock held the sequence counter is stable, so this check and
	// the per-shard cuts below see one consistent store.
	if hdr.Since > s.seq.Load() {
		unlock()
		return fmt.Errorf("%w: delta starts at seq %d, store ends at %d", ErrIncompatibleDelta, hdr.Since, s.seq.Load())
	}
	// Validate the reconciliation on every shard before mutating any.
	cuts := make([]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		ins := incoming[i]
		cuts[i] = len(sh.segs)
		if len(ins) == 0 {
			continue
		}
		in0 := ins[0].firstSeq()
		for j, seg := range sh.segs {
			if seg.recs() == 0 || seg.firstSeq() >= in0 {
				cuts[i] = j
				break
			}
		}
		if j := cuts[i]; j > 0 {
			if last := sh.segs[j-1]; last.recs() > 0 && last.lastSeq() >= in0 {
				unlock()
				return fmt.Errorf("%w: shard %d local records overlap delta start %d", ErrIncompatibleDelta, i, in0)
			}
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		ins := incoming[i]
		if len(ins) == 0 {
			continue
		}
		for _, seg := range sh.segs[cuts[i]:] {
			droppedRecs += int64(seg.recs())
			droppedBytes += seg.bytes
			if seg.cold {
				droppedCold += seg.coldBytes
				seg.dropped.Store(true)
				coldFiles = append(coldFiles, seg.coldPath)
			}
		}
		kept := sh.segs[:cuts[i]:cuts[i]]
		if n := len(kept); n > 0 && !kept[n-1].sealed() {
			// The old active segment survives the cut whole: seal it so
			// the chain invariant (only the last segment unsealed) holds
			// once the delta's segments follow it.
			kept[n-1].seal(i)
			s.sealCount.Add(1)
		}
		for _, seg := range ins {
			addedRecs += int64(seg.n)
			addedBytes += seg.bytes
		}
		sh.segs = append(append(kept, ins...), &segment{})
	}
	if hdr.Seq > s.seq.Load() {
		s.seq.Store(hdr.Seq)
	}
	s.swaps.Add(1)
	s.count.Add(addedRecs - droppedRecs)
	s.bytesTotal.Add(addedBytes - droppedBytes)
	s.coldBytesTotal.Add(-droppedCold)
	unlock()
	for _, p := range coldFiles {
		os.Remove(p)
	}
	return nil
}
