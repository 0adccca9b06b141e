// The block: a sealed segment's one and only representation.
//
// At seal a segment is encoded once into an immutable []byte — header,
// flow bloom, seven fixed-width columns, a path table and sorted postings
// — and everything downstream reads those bytes and nothing else: scans
// walk them in place, compaction merges them, the cold file is them, a
// snapshot frames them. docs/storage.md holds the byte-level spec; the
// layout type below is its executable form, shared by the encoder and by
// openBlock, the only decoder.
package tib

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"pathdump/internal/types"
)

var le = binary.LittleEndian

const (
	blockMagic     = "PDB1"
	blockHeaderLen = 80
	flowLen        = 13 // SrcIP, DstIP u32 · SrcPort, DstPort u16 · Proto u8

	// Header field offsets (all little-endian).
	hLen     = 4  // u32 total block length, header included
	hCRC     = 8  // u32 CRC-32C of b[hFlags:]
	hFlags   = 12 // u8  always 2: postings, keyed by types.StoreHash
	hWidths  = 13 // 6×u8 column widths, in col* order
	hShard   = 20 // u32 stripe the segment lives in
	hCount   = 24 // u32 records
	hPaths   = 28 // u32 distinct paths
	hHops    = 32 // u32 switch IDs in the path table
	hLinks   = 36 // u32 distinct links in the CSR index
	hPosts   = 40 // u32 link postings
	hBloom   = 44 // u32 bloom bytes (a power of two ≥ 8)
	hMinTime = 48 // i64 min STime — the stime column's frame of reference
	hMaxTime = 56 // i64 max ETime
	hSeqLo   = 64 // u64 first arrival sequence — the seq column's frame of reference
	hSeqHi   = 72 // u64 last arrival sequence
)

// The numeric columns, in header and on-disk order.
const (
	colSeq = iota
	colPath
	colSTime
	colDur
	colBytes
	colPkts
	numCols
)

// The sections that follow the header, in on-disk order.
const (
	secBloom = iota
	secSeq
	secFlow
	secPath
	secSTime
	secDur
	secBytes
	secPkts
	secPathOff  // (paths+1) × u32 offsets into secHops
	secHops     // hops × u16 switch IDs
	secPerm     // count × idx: record indexes ordered by ⟨flow, index⟩
	secLinkTab  // links × (u16 A, u16 B), ascending
	secLinkOff  // (links+1) × u32 offsets into secLinkPost
	secLinkPost // posts × idx: per link, ascending record indexes
	numSecs
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// layout is the part of the header that fixes where every section lives.
type layout struct {
	n, paths, hops, links, posts, bloom int
	w                                   [numCols]uint8
}

// offsets returns each section's start (and, last, the block's length).
func (l *layout) offsets() (off [numSecs + 1]int) {
	iw := int(idxWidth(l.n))
	size := [numSecs]int{
		secBloom: l.bloom, secFlow: l.n * flowLen,
		secPathOff: (l.paths + 1) * 4, secHops: l.hops * 2,
		secPerm: l.n * iw, secLinkTab: l.links * 4,
		secLinkOff: (l.links + 1) * 4, secLinkPost: l.posts * iw,
	}
	for c, w := range l.w {
		size[colSec(c)] = l.n * int(w)
	}
	off[0] = blockHeaderLen
	for i, sz := range size {
		off[i+1] = off[i] + sz
	}
	return off
}

// colSec maps a numeric column to its section: the flow column sits
// between seq and path.
func colSec(c int) int {
	if c > colSeq {
		return secSeq + c + 1
	}
	return secSeq
}

// width is the narrowest of 1/2/4/8 bytes that holds max.
func width(max uint64) uint8 {
	switch {
	case max <= 0xff:
		return 1
	case max <= 0xffff:
		return 2
	case max <= 0xffffffff:
		return 4
	}
	return 8
}

// idxWidth is the width of a record index in a block of n records.
func idxWidth(n int) uint8 { return width(uint64(n - 1)) }

// column is one fixed-width little-endian array inside a block.
type column struct {
	p []byte
	w uint8
}

func (c column) len() int { return len(c.p) / int(c.w) }

// slice is the column's positions [lo, hi).
func (c column) slice(lo, hi int) column { return column{c.p[lo*int(c.w) : hi*int(c.w)], c.w} }

func (c column) at(i int) uint64 {
	switch c.w {
	case 1:
		return uint64(c.p[i])
	case 2:
		return uint64(le.Uint16(c.p[2*i:]))
	case 4:
		return uint64(le.Uint32(c.p[4*i:]))
	}
	return le.Uint64(c.p[8*i:])
}

// put writes vals (less base) at the column's width.
func (c column) put(vals []uint64, base uint64) {
	switch c.w {
	case 1:
		for i, v := range vals {
			c.p[i] = uint8(v - base)
		}
	case 2:
		for i, v := range vals {
			le.PutUint16(c.p[2*i:], uint16(v-base))
		}
	case 4:
		for i, v := range vals {
			le.PutUint32(c.p[4*i:], uint32(v-base))
		}
	default:
		for i, v := range vals {
			le.PutUint64(c.p[8*i:], v-base)
		}
	}
}

// block is an opened block: the bytes plus section views into them. The
// path table is the only part materialised as Go slices — Record.Path
// aliases it, so it must outlive the bytes' readers and never change.
type block struct {
	b                []byte
	n, shard         int
	minTime, maxTime types.Time
	seqLo, seqHi     uint64
	filter           flowFilter
	col              [numCols]column
	flows            []byte
	paths            []types.Path
	perm, linkPost   column
	linkTab, linkOff []byte
}

// openBlock parses b and, when verify is set (every block that comes from
// a disk or a socket), checks everything a scan relies on: exact length,
// checksum, ascending sequences inside the declared bounds, time bounds
// that bracket every record, every path id, offset and posting in range,
// a sorted permutation and link table. Allocation is O(len(b)).
func openBlock(b []byte, verify bool) (*block, error) {
	if len(b) < blockHeaderLen || string(b[:4]) != blockMagic {
		return nil, fmt.Errorf("tib: not a block (bad magic or shorter than a header)")
	}
	l := layout{
		n: int(le.Uint32(b[hCount:])), paths: int(le.Uint32(b[hPaths:])), hops: int(le.Uint32(b[hHops:])),
		links: int(le.Uint32(b[hLinks:])), posts: int(le.Uint32(b[hPosts:])), bloom: int(le.Uint32(b[hBloom:])),
	}
	copy(l.w[:], b[hWidths:])
	for _, w := range l.w {
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return nil, fmt.Errorf("tib: block column width %d", w)
		}
	}
	if b[hFlags] == 1 {
		return nil, fmt.Errorf("tib: block flags 1: its bloom and flow order use the retired FNV-1a flow hash")
	}
	if b[hFlags] != 2 || l.n == 0 || l.bloom < 8 || l.bloom&(l.bloom-1) != 0 {
		return nil, fmt.Errorf("tib: block header inconsistent")
	}
	off := l.offsets()
	if int(le.Uint32(b[hLen:])) != len(b) || off[numSecs] != len(b) {
		return nil, fmt.Errorf("tib: block is %d bytes, header declares %d and its sections %d (truncated?)",
			len(b), le.Uint32(b[hLen:]), off[numSecs])
	}
	if verify && crc32.Checksum(b[hFlags:], crcTable) != le.Uint32(b[hCRC:]) {
		return nil, fmt.Errorf("tib: block checksum mismatch")
	}
	sec := func(s int) []byte { return b[off[s]:off[s+1]:off[s+1]] }
	iw := idxWidth(l.n)
	blk := &block{
		b: b, n: l.n, shard: int(le.Uint32(b[hShard:])),
		minTime: types.Time(le.Uint64(b[hMinTime:])), maxTime: types.Time(le.Uint64(b[hMaxTime:])),
		seqLo: le.Uint64(b[hSeqLo:]), seqHi: le.Uint64(b[hSeqHi:]),
		filter: sec(secBloom), flows: sec(secFlow),
		perm: column{sec(secPerm), iw}, linkPost: column{sec(secLinkPost), iw},
		linkTab: sec(secLinkTab), linkOff: sec(secLinkOff),
	}
	for c := range blk.col {
		blk.col[c] = column{sec(colSec(c)), l.w[c]}
	}
	// The path table: one backing array, one header per path.
	pathOff, hops := sec(secPathOff), sec(secHops)
	sw := make([]types.SwitchID, l.hops)
	for i := range sw {
		sw[i] = types.SwitchID(le.Uint16(hops[2*i:]))
	}
	blk.paths = make([]types.Path, l.paths)
	for i := range blk.paths {
		lo, hi := int(le.Uint32(pathOff[4*i:])), int(le.Uint32(pathOff[4*i+4:]))
		if lo > hi || hi > l.hops || (i == 0 && lo != 0) {
			return nil, fmt.Errorf("tib: block path table offsets out of order")
		}
		if hi > lo { // a zero-length path reads back nil, as it always has
			blk.paths[i] = sw[lo:hi:hi]
		}
	}
	if verify {
		if err := blk.verify(); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// verify is openBlock's per-record and per-posting half.
func (b *block) verify() error {
	if b.seqAt(0) != b.seqLo || b.seqAt(b.n-1) != b.seqHi {
		return fmt.Errorf("tib: block sequence bounds do not match its records")
	}
	for i := 0; i < b.n; i++ {
		if i > 0 && b.seqAt(i) <= b.seqAt(i-1) {
			return fmt.Errorf("tib: block sequence numbers not ascending")
		}
		if b.col[colPath].at(i) >= uint64(len(b.paths)) {
			return fmt.Errorf("tib: block path id out of range")
		}
		// Declared time bounds must bracket every record: bounds narrower
		// than the data would make scans prune records that exist —
		// silent wrong answers, the worst failure mode.
		st := b.minTime + types.Time(b.col[colSTime].at(i))
		if et := st + types.Time(b.col[colDur].at(i)); st < b.minTime || et > b.maxTime {
			return fmt.Errorf("tib: block bounds [%v,%v] exclude record %d (%v..%v)", b.minTime, b.maxTime, i, st, et)
		}
	}
	var prev flowKey
	for k, p := 0, 0; k < b.n; k++ {
		i := int(b.perm.at(k))
		if i >= b.n {
			return fmt.Errorf("tib: block flow posting out of range")
		}
		key := keyOf(b.flowAt(i))
		if c := prev.cmp(key); k > 0 && (c > 0 || (c == 0 && p >= i)) {
			return fmt.Errorf("tib: block flow permutation not sorted")
		}
		prev, p = key, i
	}
	links := len(b.linkTab) / 4
	if le.Uint32(b.linkOff) != 0 || int(le.Uint32(b.linkOff[4*links:])) != b.linkPost.len() {
		return fmt.Errorf("tib: block link offsets do not span its postings")
	}
	for k := 0; k < links; k++ {
		if k > 0 && linkKey(b.linkTab[4*k-4:]) >= linkKey(b.linkTab[4*k:]) {
			return fmt.Errorf("tib: block link table not sorted")
		}
		lo, hi := int(le.Uint32(b.linkOff[4*k:])), int(le.Uint32(b.linkOff[4*k+4:]))
		if lo > hi || hi > b.linkPost.len() {
			return fmt.Errorf("tib: block link offsets out of order")
		}
		for j := lo; j < hi; j++ {
			if i := b.linkPost.at(j); i >= uint64(b.n) || (j > lo && i <= b.linkPost.at(j-1)) {
				return fmt.Errorf("tib: block link posting out of range or order")
			}
		}
	}
	return nil
}

func (b *block) seqAt(i int) uint64 { return b.seqLo + b.col[colSeq].at(i) }

func (b *block) flowAt(i int) types.FlowID {
	f := b.flows[flowLen*i : flowLen*i+flowLen]
	return types.FlowID{
		SrcIP: types.IP(le.Uint32(f)), DstIP: types.IP(le.Uint32(f[4:])),
		SrcPort: le.Uint16(f[8:]), DstPort: le.Uint16(f[10:]), Proto: f[12],
	}
}

// record materialises record i into rec — the one byte-level record
// decoder. rec.Path aliases the block's immutable path table.
func (b *block) record(i int, rec *types.Record) {
	rec.Flow = b.flowAt(i)
	rec.Path = b.paths[b.col[colPath].at(i)]
	rec.STime = b.minTime + types.Time(b.col[colSTime].at(i))
	rec.ETime = rec.STime + types.Time(b.col[colDur].at(i))
	rec.Bytes = b.col[colBytes].at(i)
	rec.Pkts = b.col[colPkts].at(i)
}

// charge is the block's logical size in the byte budget's unit (recSize
// per record) — recomputed when a block arrives from a snapshot.
func (b *block) charge() (sum int64) {
	var rec types.Record
	for i := 0; i < b.n; i++ {
		rec.Path = b.paths[b.col[colPath].at(i)]
		sum += recSize(&rec)
	}
	return sum
}

// flowPostings returns f's records: a run of the flow permutation, found
// by binary search, whose record indexes ascend.
func (b *block) flowPostings(f types.FlowID) column {
	key := keyOf(f)
	lo := sort.Search(b.n, func(k int) bool { return keyOf(b.flowAt(int(b.perm.at(k)))).cmp(key) >= 0 })
	hi := lo
	for hi < b.n && b.flowAt(int(b.perm.at(hi))) == f {
		hi++
	}
	return b.perm.slice(lo, hi)
}

// linkPostings returns the records that traverse l, each once.
func (b *block) linkPostings(l types.LinkID) column {
	key, links := uint32(l.A)<<16|uint32(l.B), len(b.linkTab)/4
	k := sort.Search(links, func(k int) bool { return linkKey(b.linkTab[4*k:]) >= key })
	if k == links || linkKey(b.linkTab[4*k:]) != key {
		return b.linkPost.slice(0, 0)
	}
	return b.linkPost.slice(int(le.Uint32(b.linkOff[4*k:])), int(le.Uint32(b.linkOff[4*k+4:])))
}

func linkKey(p []byte) uint32 { return uint32(le.Uint16(p))<<16 | uint32(le.Uint16(p[2:])) }

// flowKey is a flow's place in the flow permutation's order, compared
// word by word: the low half of its hash first (which is what lets
// sortFlows sort plain words; the top half holds the stripe's bits, the
// same for every flow of a block), then the five-tuple in declaration
// order.
type flowKey [3]uint64

func keyOf(f types.FlowID) flowKey {
	return flowKey{uint64(uint32(types.StoreHash(f))), uint64(f.SrcIP)<<32 | uint64(f.DstIP),
		uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)}
}

func (k flowKey) cmp(o flowKey) int { return slices.Compare(k[:], o[:]) }

// staging is the encoder's scratch: records in column form, wide, with
// their paths interned. Seal, compaction and the snapshot paths fill one
// (from entries or from other blocks) and encode it. Stagings come from
// a sync.Pool, never from a store field: scratch that lives as long as a
// store counts against its resident footprint.
type staging struct {
	flows            []types.FlowID
	hash             []uint64          // each flow's types.StoreHash: feeds the bloom and the sort
	col              [numCols][]uint64 // colSTime holds absolute times until encode
	interner         types.PathInterner
	paths            []types.Path
	hops             int
	minTime, maxTime types.Time

	perm, posts                              []uint64 // postings, staged wide like the columns
	pathLinks, pathLinkOff, tab, fill, remap []uint32
}

var stagings = sync.Pool{New: func() any { return new(staging) }}

func getStaging() *staging { return stagings.Get().(*staging) }

// release empties the staging — dropping every path reference, so a
// pooled staging pins no block — and returns it to the pool.
func (st *staging) release() {
	st.flows, st.hash = st.flows[:0], st.hash[:0]
	for c := range st.col {
		st.col[c] = st.col[c][:0]
	}
	st.interner.Reset()
	clear(st.paths)
	st.paths, st.hops = st.paths[:0], 0
	stagings.Put(st)
}

func (st *staging) add(seq uint64, rec *types.Record) {
	st.push(rec.Flow, [numCols]uint64{seq, uint64(st.intern(rec.Path)), uint64(rec.STime), uint64(rec.ETime - rec.STime), rec.Bytes, rec.Pkts})
}

func (st *staging) intern(p types.Path) uint32 {
	pid, fresh := st.interner.Intern(p)
	if fresh {
		st.paths = append(st.paths, p)
		st.hops += len(p)
	}
	return pid
}

func (st *staging) push(f types.FlowID, vals [numCols]uint64) {
	stime := types.Time(vals[colSTime])
	etime := stime + types.Time(vals[colDur])
	if len(st.flows) == 0 {
		st.minTime, st.maxTime = stime, etime
	}
	st.minTime, st.maxTime = min(st.minTime, stime), max(st.maxTime, etime)
	st.flows, st.hash = append(st.flows, f), append(st.hash, types.StoreHash(f))
	for c, v := range vals {
		st.col[c] = append(st.col[c], v)
	}
}

// addEntries stages an active segment's entries, page by page. The
// columns are grown to the segment's length first, so a staging the pool
// had to make afresh reaches it in one allocation a column, not in a
// run of doublings.
func (st *staging) addEntries(ents *pages[entry]) {
	st.flows, st.hash = slices.Grow(st.flows, ents.n), slices.Grow(st.hash, ents.n)
	for c := range st.col {
		st.col[c] = slices.Grow(st.col[c], ents.n)
	}
	for pg := range ents.all {
		for i := range pg {
			st.add(pg[i].seq, &pg[i].rec)
		}
	}
}

// addBlock stages b's records column by column, interning each of b's
// paths once, when its first record comes by.
func (st *staging) addBlock(b *block) {
	const unset = ^uint32(0)
	st.remap = st.remap[:0]
	for range b.paths {
		st.remap = append(st.remap, unset)
	}
	for i := 0; i < b.n; i++ {
		pid := b.col[colPath].at(i)
		if st.remap[pid] == unset {
			st.remap[pid] = st.intern(b.paths[pid])
		}
		st.push(b.flowAt(i), [numCols]uint64{b.seqAt(i), uint64(st.remap[pid]), uint64(b.minTime) + b.col[colSTime].at(i),
			b.col[colDur].at(i), b.col[colBytes].at(i), b.col[colPkts].at(i)})
	}
}

// encode marshals the staged records (at least one, ascending sequence)
// into a block for the given stripe.
func (st *staging) encode(shard int) []byte {
	n := len(st.flows)
	seqs := st.col[colSeq]
	l := layout{n: n, paths: len(st.paths), hops: st.hops}
	bases := [numCols]uint64{colSeq: seqs[0], colSTime: uint64(st.minTime)}
	for c, vals := range st.col {
		var span uint64
		for _, v := range vals {
			span = max(span, v-bases[c])
		}
		l.w[c] = width(span)
	}
	l.bloom = filterLen(st.sortFlows())
	l.links, l.posts = st.countLinks()
	off := l.offsets()
	b := make([]byte, off[numSecs])
	sec := func(s int) []byte { return b[off[s]:off[s+1]] }

	copy(b, blockMagic)
	le.PutUint32(b[hLen:], uint32(len(b)))
	b[hFlags] = 2
	copy(b[hWidths:], l.w[:])
	for i, v := range [...]int{shard, n, l.paths, l.hops, l.links, l.posts, l.bloom} {
		le.PutUint32(b[hShard+4*i:], uint32(v)) // the seven u32 fields are contiguous
	}
	le.PutUint64(b[hMinTime:], uint64(st.minTime))
	le.PutUint64(b[hMaxTime:], uint64(st.maxTime))
	le.PutUint64(b[hSeqLo:], seqs[0])
	le.PutUint64(b[hSeqHi:], seqs[n-1])

	filter, flows := flowFilter(sec(secBloom)), sec(secFlow)
	for i, f := range st.flows {
		filter.add(st.hash[i])
		p := flows[flowLen*i:]
		le.PutUint32(p, uint32(f.SrcIP))
		le.PutUint32(p[4:], uint32(f.DstIP))
		le.PutUint16(p[8:], f.SrcPort)
		le.PutUint16(p[10:], f.DstPort)
		p[12] = f.Proto
	}
	for c, vals := range st.col {
		column{sec(colSec(c)), l.w[c]}.put(vals, bases[c])
	}
	pathOff, hops, h := sec(secPathOff), sec(secHops), 0
	for i, p := range st.paths {
		for _, sw := range p {
			le.PutUint16(hops[2*h:], uint16(sw))
			h++
		}
		le.PutUint32(pathOff[4*i+4:], uint32(h))
	}
	st.fillLinks(sec(secLinkTab), sec(secLinkOff))
	column{sec(secPerm), idxWidth(n)}.put(st.perm, 0)
	column{sec(secLinkPost), idxWidth(n)}.put(st.posts, 0)
	le.PutUint32(b[hCRC:], crc32.Checksum(b[hFlags:], crcTable))
	return b
}

// sortFlows builds the flow permutation — record indexes ordered by
// ⟨flowKey, index⟩ — and returns the distinct-flow count. One sort of
// ⟨half-hash, index⟩ words does the work; only a run where two flows
// share a half-hash (n²/2³³ of blocks have one) is re-sorted in full.
func (st *staging) sortFlows() (distinct int) {
	st.perm = slices.Grow(st.perm[:0], len(st.hash))
	for i, h := range st.hash {
		st.perm = append(st.perm, h<<32|uint64(i))
	}
	slices.Sort(st.perm)
	flow := func(key uint64) types.FlowID { return st.flows[uint32(key)] }
	for lo, hi := 0, 0; lo < len(st.perm); lo = hi {
		mixed := false
		for hi = lo + 1; hi < len(st.perm) && st.perm[hi]>>32 == st.perm[lo]>>32; hi++ {
			mixed = mixed || flow(st.perm[hi]) != flow(st.perm[lo])
		}
		if mixed {
			slices.SortFunc(st.perm[lo:hi], func(a, b uint64) int { return cmp.Or(keyOf(flow(a)).cmp(keyOf(flow(b))), cmp.Compare(a, b)) })
		}
	}
	for k, key := range st.perm {
		st.perm[k] = key & 0xffffffff
		if k == 0 || flow(key) != st.flows[st.perm[k-1]] {
			distinct++
		}
	}
	return distinct
}

// countLinks prepares the CSR link index without a map: each distinct
// path's distinct links (a looped path names a link once, so a record is
// posted at most once per link), the sorted table of all of them, and
// per table slot the number of records to post.
func (st *staging) countLinks() (links, posts int) {
	st.pathLinks, st.pathLinkOff = st.pathLinks[:0], append(st.pathLinkOff[:0], 0)
	for _, p := range st.paths {
		from := len(st.pathLinks)
		for i := 0; i+1 < len(p); i++ {
			if key := uint32(p[i])<<16 | uint32(p[i+1]); !slices.Contains(st.pathLinks[from:], key) {
				st.pathLinks = append(st.pathLinks, key)
			}
		}
		st.pathLinkOff = append(st.pathLinkOff, uint32(len(st.pathLinks)))
	}
	st.tab = append(st.tab[:0], st.pathLinks...)
	slices.Sort(st.tab)
	st.tab = slices.Compact(st.tab)
	for j, key := range st.pathLinks { // link keys become table slots
		slot, _ := slices.BinarySearch(st.tab, key)
		st.pathLinks[j] = uint32(slot)
	}
	st.fill = append(st.fill[:0], make([]uint32, len(st.tab)+1)...)
	for _, pid := range st.col[colPath] {
		for _, slot := range st.pathLinks[st.pathLinkOff[pid]:st.pathLinkOff[pid+1]] {
			st.fill[slot+1]++
			posts++
		}
	}
	return len(st.tab), posts
}

// fillLinks writes the link table and offsets from countLinks' tallies
// and stages the postings: per link, ascending record indexes.
func (st *staging) fillLinks(tab, offs []byte) {
	for k, key := range st.tab {
		le.PutUint16(tab[4*k:], uint16(key>>16))
		le.PutUint16(tab[4*k+2:], uint16(key))
		st.fill[k+1] += st.fill[k] // counts → start offsets
		le.PutUint32(offs[4*k+4:], st.fill[k+1])
	}
	st.posts = append(st.posts[:0], make([]uint64, st.fill[len(st.tab)])...)
	for i, pid := range st.col[colPath] {
		for _, slot := range st.pathLinks[st.pathLinkOff[pid]:st.pathLinkOff[pid+1]] {
			st.posts[st.fill[slot]] = uint64(i)
			st.fill[slot]++
		}
	}
}
