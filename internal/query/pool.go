// Pooled reply buffers. A records-op reply materialises every matching
// record into one slice; at fan-out rates those per-host slices were the
// single largest allocation site in the controller/agent profile. The
// rpc servers return each reply's slice here once the response is
// encoded, so steady-state query traffic recycles capacity instead of
// regrowing it (the same release-clears-to-capacity discipline as the
// TIB's scan-cursor pool).
package query

import (
	"sync"

	"pathdump/internal/types"
)

// maxPooledRecords caps the capacity a returned buffer may retain: one
// monster reply must not pin megabytes in the pool forever.
const maxPooledRecords = 1 << 16

var recordBufs = sync.Pool{New: func() any {
	s := make([]types.Record, 0, 1024)
	return &s
}}

// GetRecordBuf returns an empty record slice with pooled capacity.
// Execute draws reply buffers from here for records ops; callers that
// finish with a result built on one may hand it back via PutRecordBuf.
func GetRecordBuf() []types.Record {
	return (*recordBufs.Get().(*[]types.Record))[:0]
}

// PutRecordBuf recycles a record slice obtained from GetRecordBuf (nil is
// fine and buffers from elsewhere are safe — they just join the pool).
// Elements are cleared to capacity so pooled buffers never pin path
// slices, and oversized buffers are dropped rather than retained.
func PutRecordBuf(recs []types.Record) {
	if recs == nil || cap(recs) > maxPooledRecords {
		return
	}
	clear(recs[:cap(recs)])
	// The pool holds pointers; taking the parameter's address would move
	// it to the heap at function entry, on the early return too.
	buf := recs[:0]
	recordBufs.Put(&buf)
}
