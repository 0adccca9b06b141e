// Pooled reply buffers. A records-op reply materialises every matching
// record into one slice; at fan-out rates those per-host slices were the
// single largest allocation site in the controller/agent profile. Every
// place a reply's records are built draws from here — the records
// evaluator, the stream writer's chunk, the response decoders (a batch
// frame's sections included) — and hands back when done: the rpc servers
// once the response is encoded, the controller once a section is merged.
package query

import (
	"slices"
	"sync"

	"pathdump/internal/types"
)

// maxPooledRecords caps the capacity a returned buffer may retain: one
// monster reply must not pin megabytes in the pool forever.
const maxPooledRecords = 1 << 16

// recordBufs holds *[]types.Record; how big a fresh one is, the caller says.
var recordBufs sync.Pool

// GetRecordBuf returns an empty record slice for a caller that appends
// without knowing how many records are coming (ExecuteContext's records op, the
// stream writer's chunk): a recycled buffer, or a fresh one with room
// for a typical reply. PutRecordBuf takes it back.
func GetRecordBuf() []types.Record { return GetRecordBufN(1024) }

// GetRecordBufN is GetRecordBuf for a caller about to hold n records — a
// decoder at a chunk header: on an empty pool a four-record reply costs
// four records, not a typical reply's buffer per host of a fan-out.
func GetRecordBufN(n int) []types.Record {
	var recs []types.Record
	if buf, ok := recordBufs.Get().(*[]types.Record); ok {
		recs = (*buf)[:0]
	}
	return slices.Grow(recs, n)
}

// PutRecordBuf recycles a record slice obtained from GetRecordBuf (nil is
// fine and buffers from elsewhere are safe — they just join the pool).
// Its elements are cleared, so pooled buffers never pin path slices — up
// to its length, so a small reply in a big buffer costs a small clear: a
// caller that shortened the slice clears what it cut off. Oversized
// buffers are dropped rather than retained.
func PutRecordBuf(recs []types.Record) {
	if recs == nil || cap(recs) > maxPooledRecords {
		return
	}
	clear(recs)
	// The pool holds pointers; taking the parameter's address would move
	// it to the heap at function entry, on the early return too.
	buf := recs[:0]
	recordBufs.Put(&buf)
}
