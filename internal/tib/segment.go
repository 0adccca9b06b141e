package tib

import (
	"sync/atomic"
	"unsafe"

	"pathdump/internal/types"
)

// segment is one time partition of a shard's record log, bracketed by the
// min/max record times it covers. The last segment of a shard, unless it
// is sealed, is the active append target: sequence-stamped entries in
// arrival order, and nothing else — a scan filters them. Sealing (by
// record count or time span — see Store.shouldSeal) encodes it into a
// block with its flow and link postings, immutable by construction:
// nothing is left to mutate but the resident → cold transition, so
// readers and the snapshot writer hold block references without locks.
type segment struct {
	// entries is the active state, nil once sealed. A record costs an
	// append, into pages whose committed prefixes never change, so a scan
	// that copied their page headers under the shard read lock keeps
	// reading them after the lock is gone — even after seal, which drops
	// this reference but never recycles a page. Only the page table is
	// recycled (see seal): it is read only under the shard lock, which the
	// seal holds for writing.
	entries *pages[entry]

	// blk is the sealed segment's block; nil while active and again once
	// the segment is spilled cold.
	blk *block
	// n, seqLo, seqHi and filter are frozen at seal and stay resident when
	// the block spills, so scans prune cold segments without touching disk.
	n            int
	seqLo, seqHi uint64
	filter       flowFilter
	// minTime/maxTime bracket [STime, ETime] over all records; scans
	// prune the whole segment when the query range misses the bracket.
	minTime, maxTime types.Time
	// bytes is the segment's logical footprint (recSize per record) — the
	// unit of the byte-budget retention accounting. Spilling a segment
	// cold moves this to coldBytes.
	bytes int64

	// Cold-tier state (see cold.go): the block lives at coldPath and is
	// loaded transiently per scan by thaw. All transitions happen under
	// the shard write lock.
	cold      bool
	coldPath  string
	coldBytes int64 // logical footprint if thawed
	// dropped flips (before the cold file is unlinked) when eviction
	// removes the segment, so a scan that captured the segment moments
	// earlier can tell "evicted under me" from "file corrupt".
	dropped atomic.Bool
}

// sealed reports whether the segment has been encoded into a block.
func (seg *segment) sealed() bool { return seg.blk != nil || seg.cold }

// recs returns the segment's record count in any state.
func (seg *segment) recs() int {
	if seg.sealed() {
		return seg.n
	}
	return seg.entries.n
}

// firstSeq/lastSeq bracket the segment's global arrival sequence numbers.
// Sequence numbers are assigned under the shard write lock, so within a
// shard's chain both are monotone across segments and entries — watermark
// scans skip a whole segment when lastSeq() is at or below the watermark.
// Caller holds (at least) the shard read lock for the active segment,
// which holds a record from its start.
func (seg *segment) firstSeq() uint64 {
	if seg.sealed() {
		return seg.seqLo
	}
	return seg.entries.first[0].seq
}

func (seg *segment) lastSeq() uint64 {
	if seg.sealed() {
		return seg.seqHi
	}
	return seg.entries.last().seq
}

// seqOutside reports whether the (since, until] arrival-sequence window
// excludes the whole segment — the watermark prune check shared by every
// scan path.
func (seg *segment) seqOutside(since, until uint64) bool {
	return (since > 0 && seg.lastSeq() <= since) || (until > 0 && seg.firstSeq() > until)
}

// add appends one entry to the (active) segment, updating its bounds.
// Caller holds the shard write lock.
func (seg *segment) add(e entry) {
	if seg.entries.n == 0 {
		seg.minTime, seg.maxTime = e.rec.STime, e.rec.ETime
	} else {
		seg.minTime = min(seg.minTime, e.rec.STime)
		seg.maxTime = max(seg.maxTime, e.rec.ETime)
	}
	seg.bytes += recSize(&e.rec)
	seg.entries.push(e)
}

// activeBytes is the active segment's share of Store.ResidentBytes: its
// entries' pages at their capacity and their page table, plus the path
// arrays the entries point at (bytes − 96·records is recSize's
// 2·len(path) share).
func (seg *segment) activeBytes() int64 {
	return int64(unsafe.Sizeof(*seg.entries)) + seg.entries.bytes() + seg.bytes - 96*int64(seg.entries.n)
}

// sealedSegment wraps a block as a sealed, resident segment charged
// bytes against the byte budget.
func sealedSegment(blk *block, bytes int64) *segment {
	seg := &segment{bytes: bytes}
	seg.freeze(blk)
	return seg
}

// freeze installs blk as the segment's sealed form and lets go of the
// active buffers (scans that captured them keep them alive).
func (seg *segment) freeze(blk *block) {
	seg.blk, seg.n, seg.filter = blk, blk.n, blk.filter
	seg.seqLo, seg.seqHi, seg.minTime, seg.maxTime = blk.seqLo, blk.seqHi, blk.minTime, blk.maxTime
	seg.entries = nil
}

// seal encodes the active segment into its block for the given stripe and
// returns the segment that follows it, shaped like it: its entries start
// with a first page half the length this one reached, so a segment the
// size of this one fills two pages (half of all segments outgrow their
// predecessor, and a seed at the full length would hold that much more
// per shard), and the page table is handed over (pages.successor).
// Caller holds the shard write lock.
func (seg *segment) seal(shard int) *segment {
	st := getStaging()
	st.addEntries(seg.entries)
	blk := mustOpen(st.encode(shard))
	st.release()
	next := seg.entries.successor()
	seg.freeze(blk)
	return &segment{entries: &next}
}

// mustOpen opens a block this process just encoded; a failure is a bug.
func mustOpen(b []byte) *block {
	blk, err := openBlock(b, false)
	if err != nil {
		panic(err)
	}
	return blk
}

// overlaps reports whether any record in the segment can intersect tr.
// Cold segments answer from their retained bounds.
func (seg *segment) overlaps(tr types.TimeRange) bool {
	return tr.Overlaps(seg.minTime, seg.maxTime)
}
