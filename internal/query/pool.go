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
	"slices"
	"sync"

	"pathdump/internal/types"
)

// maxPooled caps the capacity a returned buffer may retain: one monster
// reply must not pin megabytes in a pool forever.
const maxPooled = 1 << 16

// bufPool recycles slices of T. sync.Pool holds pointers, and boxing a
// slice costs an allocation — one per buffer recycled, as many as the
// pool saves — so the boxes are recycled too: get empties the box it
// took, put refills one.
type bufPool[T any] struct {
	full, empty sync.Pool // *[]T: a pooled buffer / a spare box
}

// get returns an empty slice with room for n: a recycled buffer, or a
// fresh one sized by n (nil for n == 0).
func (p *bufPool[T]) get(n int) []T {
	var s []T
	if box, ok := p.full.Get().(*[]T); ok {
		s = (*box)[:0]
		*box = nil
		p.empty.Put(box)
	}
	return slices.Grow(s, n)
}

// put recycles s (nil is fine, and so is a slice from elsewhere that its
// owner no longer reads). Its elements are cleared, so pooled buffers
// pin nothing they pointed at — up to its length, so a small reply in a
// big buffer costs a small clear: a caller that shortened the slice
// clears what it cut off. Oversized buffers are dropped.
func (p *bufPool[T]) put(s []T) {
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
	recordBufs bufPool[types.Record]
	topBufs    bufPool[FlowBytes]
)

// GetRecordBuf returns an empty record slice for a caller that appends
// without knowing how many records are coming (ExecuteContext's records op, the
// stream writer's chunk): a recycled buffer, or a fresh one with room
// for a typical reply. PutRecordBuf takes it back.
func GetRecordBuf() []types.Record { return GetRecordBufN(1024) }

// GetRecordBufN is GetRecordBuf for a caller about to hold n records — a
// decoder at a chunk header: on an empty pool a four-record reply costs
// four records, not a typical reply's buffer per host of a fan-out.
func GetRecordBufN(n int) []types.Record { return recordBufs.get(n) }

// PutRecordBuf recycles a record slice obtained from GetRecordBuf (nil is
// fine and buffers from elsewhere are safe — they just join the pool).
// Its elements are cleared, so pooled buffers never pin path slices.
func PutRecordBuf(recs []types.Record) { recordBufs.put(recs) }

// GetTopBuf returns an empty top-k list with room for n entries — the
// evaluator's answer, a decoder's top section. It is never nil: a host
// that ranked no flows answers an empty list. PutTopBuf takes it back.
func GetTopBuf(n int) []FlowBytes {
	if top := topBufs.get(n); top != nil {
		return top
	}
	return []FlowBytes{}
}

// PutTopBuf recycles a top-k list obtained from GetTopBuf (nil is fine).
func PutTopBuf(top []FlowBytes) { topBufs.put(top) }

// PutResultBufs hands back both pooled buffers a reply may hold, its
// records and its top list: for a server once the reply is encoded, and
// for a caller discarding a reply it will not read.
func PutResultBufs(res *Result) {
	PutRecordBuf(res.Records)
	PutTopBuf(res.Top)
}
