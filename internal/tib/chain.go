package tib

import (
	"math/bits"
	"slices"
	"unsafe"

	"pathdump/internal/types"
)

// chainIndex is an active segment's entries and their flow and link
// index. It costs a record an append, not a map update: every entry is
// chained to the previous entry of its flow (flowPrev) and, through a
// cell per directed link it crossed (linkCells), to the previous entry on
// that link; two small open-addressed tables hold each chain's newest
// end. References into the buffers are 1 + an index, and 0 ends a chain.
//
// The entries and the chain buffers grow by pages (pages), so a committed
// prefix never changes or moves, and a scan walks what it copied of them
// without the shard lock (see chain). The head tables and the page tables
// are rewritten in place and read only under the lock, which is what lets
// a seal hand them to the next segment (successor) instead of dropping
// them: the seal holds the write lock, so no reader sees them cleared.
type chainIndex struct {
	entries pages[entry]
	// flowPrev[i] refers to the previous entry of entry i's flow.
	flowPrev pages[uint32]
	// flowHead holds each flow's newest entry. It stores no keys — slot
	// value v belongs to flow entries[v-1].rec.Flow — and is kept under
	// half full (flows counts its occupied slots), doubling by rehashing
	// the heads it holds.
	flowHead []uint32
	flows    int
	// linkCells chains, per directed link, the entries that crossed it;
	// linkHead is the keyed table of each link's newest cell, also kept
	// under half full.
	linkCells pages[linkCell]
	linkHead  []linkSlot
	links     int
}

// linkCell is one posting of the link index: an entry that crossed the
// link, and the previous cell of the same link.
type linkCell struct{ idx, prev uint32 }

// linkSlot is one slot of the link table; head 0 marks it empty.
type linkSlot struct {
	link types.LinkID
	head uint32
}

// headTableMin is the first size of a head table: a shard that holds a
// record or two — most shards of a small store — never outgrows it.
const headTableMin = 8

// tableSlot maps a 32-bit key onto a table of n slots (a power of two ≥
// 2) by its top bits after a Fibonacci multiply, so that keys that differ
// in a few low bits — a link's two switch IDs — do not cluster.
func tableSlot(h uint32, n int) int {
	return int(h * 0x9E3779B1 >> bits.LeadingZeros32(uint32(n-1)))
}

// flowSlot returns the head-table slot of flow f (h is its
// types.StoreHash): the flow's newest entry, or an empty slot.
func (x *chainIndex) flowSlot(f types.FlowID, h uint64) *uint32 {
	t := x.flowHead
	for i := tableSlot(uint32(h), len(t)); ; i = (i + 1) & (len(t) - 1) {
		if v := t[i]; v == 0 || x.entries.at(int(v-1)).rec.Flow == f {
			return &t[i]
		}
	}
}

// linkSlot is flowSlot for the link table, which holds its keys. It
// returns nil when there is no table yet: no entry so far had a link.
func (x *chainIndex) linkSlot(l types.LinkID) *linkSlot {
	t := x.linkHead
	if len(t) == 0 {
		return nil
	}
	for i := tableSlot(uint32(l.A)<<16|uint32(l.B), len(t)); ; i = (i + 1) & (len(t) - 1) {
		if t[i].head == 0 || t[i].link == l {
			return &t[i]
		}
	}
}

// growFlowHead doubles the flow table, rehashing the heads it holds (a
// head's flow is read back from its entry).
func (x *chainIndex) growFlowHead() {
	old := x.flowHead
	x.flowHead = make([]uint32, max(headTableMin, 2*len(old)))
	for _, v := range old {
		if v != 0 {
			f := x.entries.at(int(v - 1)).rec.Flow
			*x.flowSlot(f, types.StoreHash(f)) = v
		}
	}
}

// growLinkHead doubles the link table.
func (x *chainIndex) growLinkHead() {
	old := x.linkHead
	x.linkHead = make([]linkSlot, max(headTableMin, 2*len(old)))
	for _, s := range old {
		if s.head != 0 {
			*x.linkSlot(s.link) = s
		}
	}
}

// add appends e and indexes it (h is its flow's hash), first doubling
// a head table that one more key would fill half of. A record is posted
// at most once per link — a looped path traverses a link twice but is
// still one record on it. Caller holds the shard write lock.
func (x *chainIndex) add(e *entry, h uint64) {
	idx := uint32(x.entries.n)
	x.entries.push(*e)
	rec := &e.rec
	if 2*(x.flows+1) > len(x.flowHead) {
		x.growFlowHead()
	}
	fs := x.flowSlot(rec.Flow, h)
	if *fs == 0 {
		x.flows++
	}
	x.flowPrev.push(*fs)
	*fs = idx + 1
	for p, i := rec.Path, 0; i+1 < len(p); i++ {
		if 2*(x.links+1) > len(x.linkHead) {
			x.growLinkHead()
		}
		l := types.LinkID{A: p[i], B: p[i+1]}
		ls := x.linkSlot(l)
		if ls.head == 0 {
			ls.link = l
			x.links++
		} else if x.linkCells.at(int(ls.head-1)).idx == idx {
			continue
		}
		x.linkCells.push(linkCell{idx: idx, prev: ls.head})
		ls.head = uint32(x.linkCells.n)
	}
}

// successor builds the index of the segment that follows this one's: the
// buffers' first pages at half the lengths they reached (the pages cannot
// be handed over — a scan may still be walking them) with their page
// tables handed over when a seeded buffer's size (pages.successor), and
// the head tables handed over too, cleared (reuseTable).
func (x *chainIndex) successor() *chainIndex {
	return &chainIndex{
		entries:   x.entries.successor(),
		flowPrev:  x.flowPrev.successor(),
		flowHead:  reuseTable(x.flowHead, x.flows),
		linkCells: x.linkCells.successor(),
		linkHead:  reuseTable(x.linkHead, x.links),
	}
}

// reuseTable returns head table t, which held keys keys, cleared for the
// next segment — unless they filled less than an eighth of it: then a
// fresh table of the size keys call for, so a burst cannot pin a big
// table on a shard for good.
func reuseTable[T any](t []T, keys int) []T {
	if 8*keys >= len(t) {
		clear(t)
		return t
	}
	size := headTableMin
	for size < 2*keys {
		size *= 2
	}
	return make([]T, size)
}

// bytes is what the index occupies beside the entries' path arrays: every
// buffer at its capacity.
func (x *chainIndex) bytes() int64 {
	return int64(unsafe.Sizeof(*x)) + x.entries.bytes() + x.flowPrev.bytes() + x.linkCells.bytes() +
		4*int64(cap(x.flowHead)) + int64(cap(x.linkHead))*int64(unsafe.Sizeof(linkSlot{}))
}

// chain is what a listed scan captures of an active segment under the
// shard read lock: the newest matching entry (a flow's) or cell (a
// link's), and views of the entries and of the buffer its back-references
// live in. Walking it needs no lock.
type chain struct {
	head  uint32
	ents  pages[entry]
	prev  pages[uint32]   // a flow's chain: flowPrev
	cells pages[linkCell] // a link's chain: linkCells
}

// pageTabs is a scan's scratch for the page tables of the chains it
// captures (pages.view).
type pageTabs struct {
	ents  [][]entry
	prev  [][]uint32
	cells [][]linkCell
}

// reset drops every page reference, so a pooled scan buffer pins none.
func (t *pageTabs) reset() {
	clear(t.ents)
	clear(t.prev)
	clear(t.cells)
	t.ents, t.prev, t.cells = t.ents[:0], t.prev[:0], t.cells[:0]
}

// chain looks up where sel's flow — or, without one, its link — starts,
// and views the buffers the walk reads into t. Caller holds the shard
// read lock.
func (x *chainIndex) chain(sel *selector, t *pageTabs) chain {
	var ch chain
	if sel.flow != nil {
		if ch.head = *x.flowSlot(*sel.flow, sel.fh); ch.head != 0 {
			ch.prev = x.flowPrev.view(&t.prev)
		}
	} else if ls := x.linkSlot(sel.link); ls != nil && ls.head != 0 {
		ch.head, ch.cells = ls.head, x.linkCells.view(&t.cells)
	}
	if ch.head != 0 {
		ch.ents = x.entries.view(&t.ents)
	}
	return ch
}

// walk appends the chain's entries to post in ascending order and returns
// it. The chain runs newest first, so the walk stops at the first entry
// at or below the since watermark, and what it appended is reversed.
func (ch *chain) walk(since uint64, post []*entry) []*entry {
	start := len(post)
	for c := ch.head; c != 0; {
		idx := c - 1
		if ch.cells.n > 0 {
			cell := ch.cells.at(int(c - 1))
			idx, c = cell.idx, cell.prev
		} else {
			c = *ch.prev.at(int(c - 1))
		}
		e := ch.ents.at(int(idx))
		if e.seq <= since {
			break
		}
		post = append(post, e)
	}
	slices.Reverse(post[start:])
	return post
}
