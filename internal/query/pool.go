// Pooled reply buffers. A records-op reply materialises every matching
// record into one slice; at fan-out rates those per-host slices were the
// single largest allocation site in the controller/agent profile. Every
// place a reply's records are built draws from here — the records
// evaluator, the stream writer's chunk, the response decoders (a batch
// frame's sections included) — and hands back when done: the rpc servers
// once the response is encoded, the controller once a section is merged.
// A top-k reply's list is a reply buffer the same way: the host's
// evaluator and the response decoders draw it, the rpc servers hand it
// back after encoding and the controller once the child is folded.
package query

import (
	"math/bits"
	"slices"
	"sync"

	"pathdump/internal/types"
)

// maxPooled caps the capacity a returned buffer may retain: one monster
// reply must not pin megabytes in a pool forever.
const maxPooled = 1 << 16

// BufPool recycles slices of T; its zero value is ready. sync.Pool holds
// pointers, and boxing a slice costs an allocation — one per buffer
// recycled, as many as the pool saves — so the boxes are recycled too:
// Get empties the box it took, Put refills one. Put clears what it is
// handed and an owner that shortened a slice clears what it cut off, so
// a pooled buffer is zero up to its capacity: a caller that needs n zero
// elements takes Get(n)[:n].
type BufPool[T any] struct {
	full, empty sync.Pool // *[]T: a pooled buffer / a spare box
}

// Get returns an empty slice with room for n: a recycled buffer, or a
// fresh one sized by n (nil for n == 0).
func (p *BufPool[T]) Get(n int) []T {
	var s []T
	if box, ok := p.full.Get().(*[]T); ok {
		s = (*box)[:0]
		*box = nil
		p.empty.Put(box)
	}
	return slices.Grow(s, n)
}

// Put recycles s (nil is fine, and so is a slice from elsewhere that its
// owner no longer reads). Its elements are cleared, so pooled buffers
// pin nothing they pointed at — up to its length, so a small reply in a
// big buffer costs a small clear: a caller that shortened the slice
// clears what it cut off. Oversized buffers are dropped.
func (p *BufPool[T]) Put(s []T) {
	if s == nil || cap(s) > maxPooled {
		return
	}
	clear(s)
	box, _ := p.empty.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.full.Put(box)
}

var (
	recordBufs BufPool[types.Record]
	indexBufs  BufPool[totalSlot] // top-k accumulators' indexes
	// topBufs recycles top-k lists by size class: class c holds lists
	// with room for at least 2^c entries and fewer than 2^(c+1), up to
	// maxPooled, and a list made fresh has room for a power of two. In a
	// single pool a merger, drawing room for k flows, would be handed a
	// host's two-flow answer, drop it and make its own.
	topBufs [17]BufPool[FlowBytes]
)

// GetRecordBuf returns an empty record slice for a caller that appends
// without knowing how many records are coming (ExecuteContext's records op, the
// stream writer's chunk): a recycled buffer, or a fresh one with room
// for a typical reply. PutRecordBuf takes it back.
func GetRecordBuf() []types.Record { return GetRecordBufN(1024) }

// GetRecordBufN is GetRecordBuf for a caller about to hold n records — a
// decoder at a chunk header: on an empty pool a four-record reply costs
// four records, not a typical reply's buffer per host of a fan-out.
func GetRecordBufN(n int) []types.Record { return recordBufs.Get(n) }

// PutRecordBuf recycles a record slice obtained from GetRecordBuf (nil is
// fine and buffers from elsewhere are safe — they just join the pool).
// Its elements are cleared, so pooled buffers never pin path slices.
func PutRecordBuf(recs []types.Record) { recordBufs.Put(recs) }

// GetTopBuf returns an empty top-k list with room for n entries — the
// evaluator's answer, a decoder's top section. It is never nil: a host
// that ranked no flows answers an empty list. PutTopBuf takes it back.
func GetTopBuf(n int) []FlowBytes {
	c := bits.Len(uint(max(n, 1) - 1)) // the least c with 2^c ≥ n
	if c >= len(topBufs) {
		return make([]FlowBytes, 0, n)
	}
	if top := topBufs[c].Get(min(n, 1) << c); top != nil { // n == 0: a pooled list or none
		return top
	}
	return []FlowBytes{}
}

// PutTopBuf recycles a top-k list obtained from GetTopBuf (nil is fine,
// and so is a list from elsewhere: it joins the class its room fits).
func PutTopBuf(top []FlowBytes) {
	if c := bits.Len(uint(cap(top))) - 1; c >= 0 && c < len(topBufs) {
		topBufs[c].Put(top)
	}
}

// PutResultBufs hands back both pooled buffers a reply may hold, its
// records and its top list: for a server once the reply is encoded, and
// for a caller discarding a reply it will not read.
func PutResultBufs(res *Result) {
	PutRecordBuf(res.Records)
	PutTopBuf(res.Top)
}
