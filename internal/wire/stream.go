package wire

// Streaming side of the chunked records encoding. A server scanning a big
// TIB uses QueryStreamWriter to emit the reply one chunk at a time —
// holding O(DefaultChunkRecords) records plus the cumulative dictionaries
// instead of the whole reply — and a client uses ReadQueryChunks to hand
// each chunk to a merger before the frame's last byte arrives.

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// ErrStreamClosed is returned by QueryStreamWriter.Append after CloseWith
// or Abort.
var ErrStreamClosed = errors.New("wire: stream writer closed")

// QueryStreamWriter encodes one query-response frame whose records section
// is produced incrementally. It serves the records op only: the frame's
// scalar fields and every non-record section are written empty, which is
// exactly what query.ExecuteContext produces for that op. Records buffer
// until a chunk fills, then the chunk is encoded and flushed to the
// destination, so server-side memory stays O(chunk) however large the
// reply; the chunk buffer is drawn from the query package's record pool
// and handed back by CloseWith or Abort, so a reply of a few hundred
// records does not pay for a full chunk.
// CloseWith completes the frame; a writer abandoned without it leaves a
// truncated frame, which decoders reject — that truncation is the error
// signal once the HTTP status line is already committed.
//
// The writer is not safe for concurrent use.
type QueryStreamWriter struct {
	w     *writer
	fd    *flowDict
	pd    *pathDict
	chunk []types.Record
	prev  int64
	err   error
	done  bool

	// OnChunk, when set, runs after each chunk reaches the destination
	// writer. Servers hook http.Flusher here so chunks actually hit the
	// wire instead of pooling in the response buffer.
	OnChunk func()
}

// NewQueryStreamWriter writes the frame header, telemetry and result
// prefix for a records-op reply to dst and returns a writer ready to
// Append records. m is written up front, before the scan runs; pass the
// telemetry measured during the scan to CloseWith instead. compress must
// be false; ledger v2 (c) drops it along with Close.
func NewQueryStreamWriter(dst io.Writer, m Meta, op query.Op, compress bool) (*QueryStreamWriter, error) {
	if compress {
		return nil, errCompress
	}
	w := frameWriters.Get().(*writer)
	if err := w.header(dst, kindQuery); err != nil {
		w.release()
		return nil, err
	}
	s := &QueryStreamWriter{w: w}
	w.bw.Reset(dst)
	s.fd, s.pd = getFlowDict(), getPathDict()
	s.chunk = query.GetRecordBuf()

	writeMeta(s.w, m)
	s.w.str(string(op))
	s.w.uvarint(0)          // Bytes
	s.w.uvarint(0)          // Pkts
	s.w.svarint(0)          // Duration
	s.w.uvarint(secRecords) // present bitmap: records only
	return s, nil
}

// Append adds one record to the stream, flushing a full chunk to the
// destination. The record is copied; the caller may reuse it. Errors are
// sticky: once a flush fails every later Append returns the same error,
// so scan loops can keep calling without re-checking the transport.
func (s *QueryStreamWriter) Append(rec *types.Record) error {
	if s.done {
		if s.err != nil {
			return s.err
		}
		return ErrStreamClosed
	}
	if s.err != nil {
		return s.err
	}
	if n := len(s.chunk); n == cap(s.chunk) && n < DefaultChunkRecords {
		// A pooled buffer short of a chunk grows to one in one step, not
		// by append's doublings.
		s.chunk = slices.Grow(s.chunk, DefaultChunkRecords-n)
	}
	s.chunk = append(s.chunk, *rec)
	if len(s.chunk) >= DefaultChunkRecords {
		s.flushChunk()
	}
	return s.err
}

// Close is CloseWith for a writer that learned only segment counts. The
// benchmark's next revision (ledger v2) deletes it: the benchmark is its
// last caller.
func (s *QueryStreamWriter) Close(segScanned, segPruned int) error {
	return s.CloseWith(Meta{SegmentsScanned: segScanned, SegmentsPruned: segPruned})
}

// CloseWith flushes the final chunk, writes the end marker carrying m —
// the telemetry the scan measured, which the decoder adds to the head's
// Meta — and releases pooled resources. It returns the first error the
// stream hit.
func (s *QueryStreamWriter) CloseWith(m Meta) error {
	if s.done {
		return s.err
	}
	if s.err == nil && len(s.chunk) > 0 {
		s.prev = writeRecordChunk(s.w, s.chunk, s.fd, s.pd, s.prev)
	}
	if s.err == nil {
		s.w.uvarint(0)
		writeMeta(s.w, m)
		if err := s.w.bw.Flush(); err != nil {
			s.fail(err)
		}
	}
	s.release()
	return s.err
}

// Err reports the stream's sticky error: the first transport failure any
// Append or flush hit, or nil while the stream is healthy.
func (s *QueryStreamWriter) Err() error {
	if s.err != nil && !errors.Is(s.err, ErrStreamClosed) {
		return s.err
	}
	return nil
}

// Abort releases the writer's pooled resources without completing the
// frame, leaving whatever bytes already flushed as a truncated frame the
// decoder will reject. Use it when the scan fails after streaming began.
func (s *QueryStreamWriter) Abort() {
	if s.done {
		return
	}
	if s.err == nil {
		s.err = ErrStreamClosed
	}
	s.release()
}

func (s *QueryStreamWriter) flushChunk() {
	if len(s.chunk) == 0 || s.err != nil {
		return
	}
	s.prev = writeRecordChunk(s.w, s.chunk, s.fd, s.pd, s.prev)
	clear(s.chunk) // the pool clears what a buffer holds, not what it once held
	s.chunk = s.chunk[:0]
	if err := s.w.bw.Flush(); err != nil {
		s.fail(err)
		return
	}
	if s.OnChunk != nil {
		s.OnChunk()
	}
}

func (s *QueryStreamWriter) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("wire: writing stream frame: %w", err)
	}
}

func (s *QueryStreamWriter) release() {
	s.done = true
	s.w.release() // drops buffered bytes + destination before pooling
	s.w = nil
	s.fd.release()
	s.pd.release()
	s.fd, s.pd = nil, nil
	query.PutRecordBuf(s.chunk)
	s.chunk = nil
}

// ReadQueryChunks decodes one query response frame, handing each record
// chunk to fn as soon as its bytes are available instead of materialising
// the records section. fn runs on the caller's goroutine and must not
// retain the slice — it is reused for the next chunk. The returned Result
// carries every non-record section; Records stays nil. Frames written by
// WriteQuery and QueryStreamWriter decode identically.
func ReadQueryChunks(r io.Reader, fn func([]types.Record)) (Meta, *query.Result, error) {
	if fn == nil {
		return ReadQuery(r)
	}
	var m Meta
	var res query.Result
	err := readFrame(r, kindQuery, func(br *reader) {
		m = readMeta(br)
		readResult(br, &res, &m, fn)
	})
	if err != nil {
		query.PutResultBufs(&res)
		return Meta{}, nil, err
	}
	return m, &res, nil
}
