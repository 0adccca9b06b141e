// Snapshot/restore of the segmented TIB (the stand-in for the paper's
// MongoDB persistence).
//
// A snapshot is a 40-byte preamble (magic, format version, the writer's
// stripe count and sequence counter, and a word older builds set on
// incremental deltas, zero on every stream this one writes), then the
// store's blocks back to back — each carries its own magic, length,
// checksum and stripe — then a terminator holding the block count, so a
// stream cut off anywhere never loads as complete. Sealed and cold
// segments ship their block verbatim; each shard's active segment is
// encoded on the way out into a block like any other, which the reader
// adopts as it is. docs/storage.md has the bytes.
//
// ReadSnapshot builds a new store: the stream is read and validated
// whole before the store exists, so nothing ever reads a half-restored
// one.
package tib

import (
	"bufio"
	"fmt"
	"io"
)

const (
	snapshotMagic   = "PDTIBSN\n"
	snapshotVersion = 6 // after gob records (1), gob segments (2), gob deltas (3), an index flag (4) and FNV-1a blocks (5)
	snapshotEnd     = "PDBE"
	// A block is read in doubling steps from this size up to its declared
	// length, so a corrupt length field cannot make the loader allocate
	// what the stream does not hold.
	readStep = 4 << 10
)

// snapshotHeader follows the magic: three little-endian fields, the
// zero word older builds put an incremental delta's watermark in, and
// eight zero bytes, in 32 bytes.
type snapshotHeader struct {
	// Version is snapshotVersion; anything else is refused loudly.
	Version uint32
	// Shards is the writing store's stripe count, which the restored
	// store takes: each block is adopted into the stripe it names.
	Shards int
	// Seq is the writer's global sequence counter at capture time, so
	// appends after a restore extend the original arrival order.
	Seq uint64
}

// segView is one segment's immutable capture for the writer: a sealed
// segment's block, a cold segment's stub (thawed at encode time, outside
// the shard locks) or a view of the active segment's entries.
type segView struct {
	blk  *block
	cold *segment
	ents pages[entry]
}

// captureSegments snapshots every shard's segment chain under all shard
// read-locks at once (a consistent, downward-closed prefix of the global
// arrival order, like every scan).
func (s *Store) captureSegments() (views [][]segView, seq uint64) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	views = make([][]segView, len(s.shards))
	var tab [][]entry // the active segments' page tables (pages.view)
	for i := range s.shards {
		for _, seg := range s.shards[i].segs() {
			v := segView{blk: seg.blk}
			switch {
			case seg.cold:
				v.cold = seg
			case seg.entries != nil:
				v.ents = seg.entries.view(&tab)
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
func (s *Store) Snapshot(w io.Writer) error {
	views, seq := s.captureSegments()
	bw := bufio.NewWriter(w)
	var pre [len(snapshotMagic) + 32]byte
	h := pre[copy(pre[:], snapshotMagic):]
	le.PutUint32(h, snapshotVersion)
	le.PutUint32(h[4:], uint32(len(s.shards)))
	le.PutUint64(h[8:], seq)
	bw.Write(pre[:]) // a bufio.Writer's error is sticky: Flush reports it
	blocks := 0
	for si, segs := range views {
		for _, v := range segs {
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
			if blk != nil {
				bw.Write(blk.b) // verbatim
			} else {
				// The active segment: encode it as a seal would.
				st := getStaging()
				st.addEntries(&v.ents)
				bw.Write(st.encode(si))
				st.release()
			}
			blocks++
		}
	}
	var end [8]byte
	copy(end[:], snapshotEnd)
	le.PutUint32(end[4:], uint32(blocks))
	bw.Write(end[:])
	return bw.Flush()
}

// readSnapshot reads and validates a whole stream: the header (this
// version, no delta watermark, a stripe count a store can take), then every
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
	hdr = snapshotHeader{Version: le.Uint32(h), Shards: int(le.Uint32(h[4:])), Seq: le.Uint64(h[8:])}
	if hdr.Version != snapshotVersion {
		return hdr, nil, fmt.Errorf("tib: unsupported snapshot version %d", hdr.Version)
	}
	if since := le.Uint64(h[16:]); since != 0 {
		return hdr, nil, fmt.Errorf("tib: stream is an incremental snapshot (since seq %d) cut by an older build; deltas are no longer read, pull a full snapshot", since)
	}
	if n := hdr.Shards; n < 1 || n > maxShards || n&(n-1) != 0 {
		// The restored store takes this count: refuse it before allocating.
		return hdr, nil, fmt.Errorf("tib: snapshot declares %d stripes, want a power of two up to %d", n, maxShards)
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

// ReadSnapshot restores a store from a snapshot stream: one with the
// writer's stripe count and sequence counter, every block adopted as it
// came into the stripe it names, and every other setting at its default.
// A stream that fails any of readSnapshot's checks yields no store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	hdr, blocks, err := readSnapshot(r)
	if err != nil {
		return nil, err
	}
	s := NewStoreConfig(Config{Shards: hdr.Shards})
	var total, bytes int64
	for _, blk := range blocks {
		// readSnapshot checked that each stripe's blocks arrive in chain
		// order; a shard's active segment starts with its next record.
		sh := &s.shards[blk.shard]
		seg := sealedSegment(blk, blk.charge())
		sh.push(seg)
		total += int64(blk.n)
		bytes += seg.bytes
	}
	s.seq.Store(hdr.Seq) // readSnapshot checked no record is past it
	s.count.Store(total)
	s.bytesTotal.Store(bytes)
	return s, nil
}
