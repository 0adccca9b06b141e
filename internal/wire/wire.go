// Package wire implements PathDump's binary columnar encoding for query
// and batch-query traffic — the data plane between host daemons and the
// controller. JSON ships every record as a pointer-heavy object; at fan-out
// scale the encode/decode cost and byte volume dominate query latency. The
// wire format instead encodes a response column by column:
//
//	frame  := magic "PDW1" | kind (1B) | flags (1B) | body
//	body   := sections
//
// The flags byte is reserved: writers put 0 there and readers reject any
// other value.
//
// Flow IDs and paths are dictionary-encoded (each distinct value written
// once, records carry small integer indices), timestamps are delta-encoded
// (STime as a delta against the previous record, ETime against the record's
// own STime) and all integers use varints, so a typical record batch is an
// integer factor smaller than its JSON form and decodes without reflection.
//
// The records section is chunked: a sequence of bounded-size chunks, each
// carrying only the dictionary entries that first appear in it (deltas
// against the cumulative dictionaries), followed by a zero-count end marker
// that carries a Meta delta: the telemetry learned only after the scan. A
// server can therefore emit a huge records reply O(chunk) at a time
// (QueryStreamWriter, stream.go) and a client can hand each chunk to a
// merger before the frame's last byte arrives (ReadQueryChunks).
//
// Servers follow the request: a body marked with the wire Content-Type is
// decoded as a frame (request.go) and any other as JSON, and a client that
// sends "Accept: application/x-pathdump-wire" is answered with that
// Content-Type, any other client with JSON. The controller's transport
// speaks the wire format only, both ways, and takes a reply of any other
// Content-Type for an error (see internal/rpc); curl gets JSON.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// ContentType identifies a wire-encoded HTTP response body. Clients offer
// it in Accept; servers that honour the offer set it as Content-Type.
const ContentType = "application/x-pathdump-wire"

// Accepted reports whether an Accept header offers the wire encoding.
func Accepted(accept string) bool { return strings.Contains(accept, ContentType) }

// IsWire reports whether a Content-Type header carries the wire encoding.
func IsWire(contentType string) bool {
	return strings.HasPrefix(contentType, ContentType)
}

// Frame kinds. Response kinds sit in the low range, request kinds at
// 0x11+ so a frame posted to the wrong endpoint fails the kind check
// instead of misparsing.
const (
	kindQuery    = 0x01 // Meta + one query.Result
	kindBatch    = 0x02 // a list of per-host BatchReply entries
	kindQueryReq = 0x11 // optional host + one query.Query
	kindBatchReq = 0x12 // host list + query.Query + parallelism
)

// errCompress refuses a compressed frame: the format has no compression,
// and the flags byte is always 0.
var errCompress = errors.New("wire: compressed frames are not supported")

var magic = [4]byte{'P', 'D', 'W', '1'}

// Caps rejected as corrupt before any allocation is sized from them. They
// are far above anything the system produces but small enough that a
// hostile length prefix cannot request an absurd element count.
const (
	maxElems   = 1 << 26 // entries in any one section or dictionary
	maxPathLen = 1 << 16 // switches in one path
	maxOpLen   = 1 << 10 // bytes in an op name
	maxErrLen  = 4 << 10 // bytes in a batch reply's per-host error
	maxReplies = 1 << 20 // per-host replies in a batch frame
	maxChunk   = 1 << 16 // records in one chunk of a records section
)

// DefaultChunkRecords is the number of records encoded per chunk of a
// records section. It bounds both the writer's buffering (a streaming
// server holds one chunk of records plus the cumulative dictionaries) and
// the decoder's per-chunk allocation; decoders accept chunks up to the
// larger maxChunk cap so the constant can be tuned without a format break.
const DefaultChunkRecords = 4096

// Meta is what one host's evaluation cost, as its reply carries it.
type Meta = query.Meta

// BatchReply is one host's slot in a batch response frame, and in the
// JSON /batchquery reply's "replies" list.
type BatchReply struct {
	Host   types.HostID `json:"host"`
	Result query.Result `json:"result"`
	Meta
	Error string `json:"error,omitempty"`
}

// WriteQuery encodes one query response frame to w. compress must be
// false; the benchmark's next revision (ledger v2 (c)) drops it along
// with QueryStreamWriter.Close.
func WriteQuery(w io.Writer, m Meta, res *query.Result, compress bool) error {
	if compress {
		return errCompress
	}
	return writeFrame(w, kindQuery, func(bw *writer) {
		writeMeta(bw, m)
		writeResult(bw, res)
	})
}

// ReadQuery decodes one query response frame from r. A records section
// and a top section are decoded into buffers from the query package's
// pools; the caller owns Result.Records and Result.Top and may hand them
// to query.PutResultBufs. On an error they go back to the pools.
func ReadQuery(r io.Reader) (Meta, *query.Result, error) {
	var m Meta
	var res query.Result
	err := readFrame(r, kindQuery, func(br *reader) {
		m = readMeta(br)
		readResult(br, &res, &m, nil)
	})
	if err != nil {
		query.PutResultBufs(&res)
		return Meta{}, nil, err
	}
	return m, &res, nil
}

// WriteBatch encodes a batch response frame to w: WriteBatchEach over a
// slice. compress must be false; ledger v2 (c) drops it along with
// QueryStreamWriter.Close.
func WriteBatch(w io.Writer, replies []BatchReply, compress bool) error {
	if compress {
		return errCompress
	}
	return WriteBatchEach(w, len(replies), func(i int) *BatchReply { return &replies[i] })
}

// WriteBatchEach encodes a batch response frame of n sections to w,
// pulling section i from next once section i-1 is encoded, so a server
// can write each host's answer as soon as it has it and reuse its memory
// for a later one. The section count goes first: when next returns nil
// the frame stops short, its reader rejects it, and WriteBatchEach
// returns an error. A per-host error longer than the decoder accepts is
// cut to fit: one verbose host must not cost every other host in the
// frame its answer.
func WriteBatchEach(w io.Writer, n int, next func(i int) *BatchReply) error {
	short := -1
	err := writeFrame(w, kindBatch, func(bw *writer) {
		bw.uvarint(uint64(n))
		for i := 0; i < n; i++ {
			rep := next(i)
			if rep == nil {
				short = i
				return
			}
			bw.uvarint(uint64(rep.Host))
			bw.str(rep.Error[:min(len(rep.Error), maxErrLen)])
			writeMeta(bw, rep.Meta)
			writeResult(bw, &rep.Result)
		}
	})
	if err == nil && short >= 0 {
		err = fmt.Errorf("wire: batch frame cut short at section %d of %d", short, n)
	}
	return err
}

// ReadBatchEach decodes a batch response frame from r one host section at
// a time, handing fn section i of n as soon as it is off the socket. rep
// itself is only valid during the call, but every slice it holds was
// decoded for this section alone and is the consumer's to keep: copying
// rep.Result moves the section without copying its contents. A section's
// records and top list are drawn from the query package's pools, as
// ReadQuery's are; a consumer that is done with them may hand them to
// query.PutResultBufs, and one that is not leaves them to the collector.
// A section that fails to decode never reaches fn: its buffers go back
// to the pools. An error from fn stops the decode and is returned. A
// frame can fail after some of its sections were delivered (truncation
// shows at the end), so a consumer must treat an error as the whole
// frame's; a frame its writer cut short (WriteBatchEach) is one that
// fails.
func ReadBatchEach(r io.Reader, fn func(i, n int, rep *BatchReply) error) error {
	return readFrame(r, kindBatch, func(br *reader) {
		n := br.count("batch replies", maxReplies)
		var rep BatchReply
		for i := 0; i < n && br.err == nil; i++ {
			rep = BatchReply{Host: types.HostID(br.uvarint()), Error: br.str(maxErrLen), Meta: readMeta(br)}
			readResult(br, &rep.Result, &rep.Meta, nil)
			if br.err != nil {
				query.PutResultBufs(&rep.Result)
			} else {
				br.err = fn(i, n, &rep)
			}
		}
	})
}

// ReadBatch decodes a batch response frame from r into one slice; the
// sections' records are the caller's, under ReadBatchEach's rule.
func ReadBatch(r io.Reader) ([]BatchReply, error) {
	var replies []BatchReply
	err := ReadBatchEach(r, func(i, n int, rep *BatchReply) error {
		if replies == nil {
			replies = make([]BatchReply, 0, min(n, 4096))
		}
		replies = append(replies, *rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return replies, nil
}

// frameWriters and frameReaders pool the frame codecs, each with its
// 32 KiB bufio buffer and header scratch: encode and decode of every
// query/batch exchange borrow one, so a frame costs its contents and
// nothing of the codec's own. These two constructors are the only places
// a writer or reader is built.
var (
	frameWriters = sync.Pool{New: func() any { return &writer{bw: bufio.NewWriterSize(io.Discard, 32<<10)} }}
	frameReaders = sync.Pool{New: func() any { return &reader{br: bufio.NewReaderSize(eofReader{}, 32<<10)} }}
)

// eofReader is the source a pooled frame reader is parked on: always at
// EOF, and stateless, so parking a reader allocates nothing.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }

// release drops the writer's buffered bytes and destination, then hands
// it back to frameWriters.
func (w *writer) release() {
	w.bw.Reset(io.Discard)
	frameWriters.Put(w)
}

// header writes a frame header straight to dst from the writer's
// scratch.
func (w *writer) header(dst io.Writer, kind byte) error {
	h := w.buf[:6]
	copy(h, magic[:])
	h[4], h[5] = kind, 0
	if _, err := dst.Write(h); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	return nil
}

// release drops the reader's source and sticky error, then hands it back
// to frameReaders: the next frame it decodes starts clean.
func (r *reader) release() {
	r.br.Reset(eofReader{})
	r.err = nil
	frameReaders.Put(r)
}

// writeFrame writes header and body. The body writer is buffered, so
// section encoders stream straight toward the socket instead of building
// the whole reply in memory first.
func writeFrame(w io.Writer, kind byte, body func(*writer)) error {
	bw := frameWriters.Get().(*writer)
	defer bw.release()
	if err := bw.header(w, kind); err != nil {
		return err
	}
	bw.bw.Reset(w)
	body(bw)
	if err := bw.bw.Flush(); err != nil {
		return fmt.Errorf("wire: writing frame body: %w", err)
	}
	return nil
}

// readFrame validates the header, runs the body decoder and surfaces its
// sticky error.
func readFrame(r io.Reader, wantKind byte, body func(*reader)) error {
	br := frameReaders.Get().(*reader)
	defer br.release()
	hdr := br.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("wire: truncated frame header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return fmt.Errorf("wire: bad magic %q: not a wire frame", hdr[:4])
	}
	if hdr[4] != wantKind {
		return fmt.Errorf("wire: frame kind %#x, want %#x", hdr[4], wantKind)
	}
	if hdr[5] != 0 {
		return fmt.Errorf("wire: unknown frame flags %#x", hdr[5])
	}
	br.br.Reset(r)
	body(br)
	return br.err
}

// writeMeta encodes a Meta: a frame's or section's head, or a records
// section's end-marker delta.
func writeMeta(w *writer, m Meta) {
	w.uvarint(uint64(m.RecordsScanned))
	w.uvarint(uint64(m.SegmentsScanned))
	w.uvarint(uint64(m.SegmentsPruned))
	w.uvarint(uint64(m.ColdLoads))
	w.uvarint(uint64(m.ScanTime))
}

func readMeta(r *reader) Meta {
	return Meta{
		RecordsScanned:  int(r.uvarint()),
		SegmentsScanned: int(r.uvarint()),
		SegmentsPruned:  int(r.uvarint()),
		ColdLoads:       int(r.uvarint()),
		ScanTime:        time.Duration(r.uvarint()),
	}
}

// Section-presence bits. Scalars (Bytes, Pkts, Duration) are always
// written — they cost one byte each when zero.
const (
	secFlows = 1 << iota
	secPaths
	secFlowIDs
	secHists
	secTop
	secViolations
	secMatrix
	secRecords
)

func writeResult(w *writer, res *query.Result) {
	w.str(string(res.Op))
	w.uvarint(res.Bytes)
	w.uvarint(res.Pkts)
	w.svarint(int64(res.Duration))

	var present uint64
	if len(res.Flows) > 0 {
		present |= secFlows
	}
	if len(res.Paths) > 0 {
		present |= secPaths
	}
	if len(res.FlowIDs) > 0 {
		present |= secFlowIDs
	}
	if len(res.Hists) > 0 {
		present |= secHists
	}
	if len(res.Top) > 0 {
		present |= secTop
	}
	if len(res.Violations) > 0 {
		present |= secViolations
	}
	if len(res.Matrix) > 0 {
		present |= secMatrix
	}
	if len(res.Records) > 0 {
		present |= secRecords
	}
	w.uvarint(present)

	if present&secFlows != 0 {
		writeFlows(w, res.Flows)
	}
	if present&secPaths != 0 {
		w.uvarint(uint64(len(res.Paths)))
		for _, p := range res.Paths {
			writePath(w, p)
		}
	}
	if present&secFlowIDs != 0 {
		w.uvarint(uint64(len(res.FlowIDs)))
		for _, f := range res.FlowIDs {
			writeFlowID(w, f)
		}
	}
	if present&secHists != 0 {
		w.uvarint(uint64(len(res.Hists)))
		for i := range res.Hists {
			h := &res.Hists[i]
			w.uvarint(uint64(h.Link.A))
			w.uvarint(uint64(h.Link.B))
			w.uvarint(h.BinBytes)
			w.uvarint(uint64(len(h.Bins)))
			for _, b := range h.Bins {
				w.uvarint(b)
			}
		}
	}
	if present&secTop != 0 {
		w.uvarint(uint64(len(res.Top)))
		for i := range res.Top {
			t := &res.Top[i]
			writeFlowID(w, t.Flow)
			w.uvarint(t.Bytes)
			w.uvarint(t.Pkts)
		}
	}
	if present&secViolations != 0 {
		w.uvarint(uint64(len(res.Violations)))
		for i := range res.Violations {
			writeFlowID(w, res.Violations[i].Flow)
			writePath(w, res.Violations[i].Path)
		}
	}
	if present&secMatrix != 0 {
		w.uvarint(uint64(len(res.Matrix)))
		for i := range res.Matrix {
			c := &res.Matrix[i]
			w.uvarint(uint64(c.SrcToR))
			w.uvarint(uint64(c.DstToR))
			w.uvarint(c.Bytes)
		}
	}
	if present&secRecords != 0 {
		writeRecords(w, res.Records)
	}
}

// readResult decodes one result. The records section's end marker adds
// its Meta delta to m (a streamed frame learns its telemetry only after
// the scan finishes); a non-nil sink receives each decoded
// record chunk instead of the chunks accumulating into res.Records.
func readResult(r *reader, res *query.Result, m *Meta, sink func([]types.Record)) {
	res.Op = r.op()
	res.Bytes = r.uvarint()
	res.Pkts = r.uvarint()
	res.Duration = types.Time(r.svarint())

	present := r.uvarint()
	if r.err != nil {
		return
	}
	if present&^uint64(secFlows|secPaths|secFlowIDs|secHists|secTop|secViolations|secMatrix|secRecords) != 0 {
		r.fail(fmt.Errorf("wire: unknown result sections %#x", present))
		return
	}

	if present&secFlows != 0 {
		res.Flows = readFlows(r)
	}
	if present&secPaths != 0 {
		n := r.count("paths", maxElems)
		res.Paths = make([]types.Path, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			res.Paths = append(res.Paths, readPath(r))
		}
	}
	if present&secFlowIDs != 0 {
		n := r.count("flow ids", maxElems)
		res.FlowIDs = make([]types.FlowID, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			res.FlowIDs = append(res.FlowIDs, readFlowID(r))
		}
	}
	if present&secHists != 0 {
		n := r.count("hists", maxElems)
		res.Hists = make([]query.LinkHist, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			var h query.LinkHist
			h.Link.A = types.SwitchID(r.uvarint())
			h.Link.B = types.SwitchID(r.uvarint())
			h.BinBytes = r.uvarint()
			if bins := r.count("hist bins", maxElems); bins > 0 {
				h.Bins = make([]uint64, 0, min(bins, 4096))
				for j := 0; j < bins && r.err == nil; j++ {
					h.Bins = append(h.Bins, r.uvarint())
				}
			}
			res.Hists = append(res.Hists, h)
		}
	}
	if present&secTop != 0 {
		n := r.count("top flows", maxElems)
		res.Top = query.GetTopBuf(min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			var t query.FlowBytes
			t.Flow = readFlowID(r)
			t.Bytes = r.uvarint()
			t.Pkts = r.uvarint()
			res.Top = append(res.Top, t)
		}
	}
	if present&secViolations != 0 {
		n := r.count("violations", maxElems)
		res.Violations = make([]query.Violation, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			var v query.Violation
			v.Flow = readFlowID(r)
			v.Path = readPath(r)
			res.Violations = append(res.Violations, v)
		}
	}
	if present&secMatrix != 0 {
		n := r.count("matrix cells", maxElems)
		res.Matrix = make([]query.MatrixCell, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			var c query.MatrixCell
			c.SrcToR = types.SwitchID(r.uvarint())
			c.DstToR = types.SwitchID(r.uvarint())
			c.Bytes = r.uvarint()
			res.Matrix = append(res.Matrix, c)
		}
	}
	if present&secRecords != 0 {
		res.Records = readRecords(r, m, sink)
	}
}

// writeFlows dictionary-encodes a Flow list: distinct flow IDs and paths
// written once in first-appearance order, then one (flow, path) index pair
// per entry.
func writeFlows(w *writer, flows []types.Flow) {
	fd, pd := getFlowDict(), getPathDict()
	defer fd.release()
	defer pd.release()
	for i := range flows {
		fd.index(flows[i].ID)
		pd.index(flows[i].Path)
	}
	fd.write(w)
	pd.write(w)
	w.uvarint(uint64(len(flows)))
	for i := range flows {
		w.uvarint(uint64(fd.index(flows[i].ID)))
	}
	for i := range flows {
		w.uvarint(uint64(pd.index(flows[i].Path)))
	}
}

// readFlows decodes writeFlows' section: the two dictionaries, then the
// flow-index column — each entry appended as its index is read — then
// the path-index column filled in over those entries.
func readFlows(r *reader) []types.Flow {
	fd := readFlowDictDelta(r, nil)
	pd := readPathDictDelta(r, nil)
	n := r.count("flows", maxElems)
	if r.err != nil {
		return nil
	}
	flows := make([]types.Flow, 0, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		if v := readDictIndex(r, len(fd), "flow"); r.err == nil {
			flows = append(flows, types.Flow{ID: fd[v]})
		}
	}
	for i := 0; i < n && r.err == nil; i++ {
		if v := readDictIndex(r, len(pd), "path"); r.err == nil {
			flows[i].Path = pd[v]
		}
	}
	if r.err != nil {
		return nil
	}
	return flows
}

// writeRecords is the hot section: column-major record encoding over flow
// and path dictionaries with delta-encoded timestamps, cut into
// DefaultChunkRecords-sized chunks:
//
//	records := chunk* end
//	chunk   := n (>0) | flow-dict delta | path-dict delta
//	           | n×flowIdx | n×pathIdx | n×ΔSTime | n×ΔETime
//	           | n×bytes | n×pkts
//	end     := 0 | Meta delta
//
// Dictionaries are cumulative across chunks — each chunk carries only the
// entries that first appear in it — and the STime delta chain continues
// across chunk boundaries. The end marker's Meta delta is added to the
// frame's (or section's) Meta by the decoder, field by field: a streaming
// server writes its head before the scan starts and the telemetry it
// measured in the end marker; the materialised path here always writes a
// zero delta.
func writeRecords(w *writer, recs []types.Record) {
	fd, pd := getFlowDict(), getPathDict()
	defer fd.release()
	defer pd.release()
	var prev int64
	for start := 0; start < len(recs); start += DefaultChunkRecords {
		end := min(start+DefaultChunkRecords, len(recs))
		prev = writeRecordChunk(w, recs[start:end], fd, pd, prev)
	}
	w.uvarint(0)
	writeMeta(w, Meta{})
}

// writeRecordChunk encodes one bounded chunk of records against the
// cumulative dictionaries and returns the new tail of the STime delta
// chain.
func writeRecordChunk(w *writer, recs []types.Record, fd *flowDict, pd *pathDict, prev int64) int64 {
	fOld, pOld := len(fd.list), len(pd.list)
	for i := range recs {
		fd.index(recs[i].Flow)
		pd.index(recs[i].Path)
	}
	w.uvarint(uint64(len(recs)))
	w.uvarint(uint64(len(fd.list) - fOld))
	for _, f := range fd.list[fOld:] {
		writeFlowID(w, f)
	}
	w.uvarint(uint64(len(pd.list) - pOld))
	for _, p := range pd.list[pOld:] {
		writePath(w, p)
	}
	for i := range recs {
		w.uvarint(uint64(fd.index(recs[i].Flow)))
	}
	for i := range recs {
		w.uvarint(uint64(pd.index(recs[i].Path)))
	}
	for i := range recs {
		st := int64(recs[i].STime)
		w.svarint(st - prev)
		prev = st
	}
	for i := range recs {
		w.svarint(int64(recs[i].ETime) - int64(recs[i].STime))
	}
	for i := range recs {
		w.uvarint(recs[i].Bytes)
	}
	for i := range recs {
		w.uvarint(recs[i].Pkts)
	}
	return prev
}

// readRecords decodes a chunked records section. With a nil sink the
// chunks accumulate, each decoded in place at the tail of one buffer,
// and that buffer is the return value. With a sink each chunk is decoded
// into the same buffer, reused from chunk to chunk, and handed to the
// sink (which must not retain it); the return value is nil.
//
// The buffer is drawn from the query package's record pool at the first
// non-empty chunk — for every frame kind, a batch's sections included: a
// recycled buffer brings its capacity, a fresh one is sized by the chunk. The caller owns the returned slice and may hand it to
// query.PutRecordBuf when done. On any error the buffer goes back to the
// pool and nothing is returned. The end marker's Meta delta is added to m.
func readRecords(r *reader, m *Meta, sink func([]types.Record)) []types.Record {
	dict := decodeDicts.Get().(*decodeDict)
	defer dict.release()
	var recs []types.Record
	var prev int64
	total := 0
	for r.err == nil {
		n := r.count("record chunk", maxChunk)
		if r.err != nil {
			break
		}
		if n == 0 {
			m.Add(readMeta(r))
			if r.err != nil {
				break
			}
			if sink != nil {
				query.PutRecordBuf(recs)
				return nil
			}
			return recs
		}
		total += n
		if total > maxElems {
			r.fail(fmt.Errorf("wire: corrupt frame: records total %d exceeds cap %d", total, maxElems))
			break
		}
		dict.flows = readFlowDictDelta(r, dict.flows)
		dict.paths = readPathDictDelta(r, dict.paths)
		fd, pd := dict.flows, dict.paths
		if recs == nil {
			recs = query.GetRecordBufN(n)
		}
		start := len(recs)
		if sink != nil {
			start = 0
		}
		recs = slices.Grow(recs[:start], n)[:start+n]
		dst := recs[start:]
		// Indices are resolved inline against the dictionaries instead of
		// materialising column slices — this loop runs once per chunk per
		// host reply, and two index-column allocations per chunk is what
		// the fan-out profile showed as the decode path's top cost.
		for i := 0; i < n && r.err == nil; i++ {
			if v := readDictIndex(r, len(fd), "flow"); r.err == nil {
				dst[i] = types.Record{Flow: fd[v]}
			}
		}
		for i := 0; i < n && r.err == nil; i++ {
			if v := readDictIndex(r, len(pd), "path"); r.err == nil {
				dst[i].Path = pd[v]
			}
		}
		for i := 0; i < n && r.err == nil; i++ {
			prev += r.svarint()
			dst[i].STime = types.Time(prev)
		}
		for i := 0; i < n && r.err == nil; i++ {
			dst[i].ETime = dst[i].STime + types.Time(r.svarint())
		}
		for i := 0; i < n && r.err == nil; i++ {
			dst[i].Bytes = r.uvarint()
		}
		for i := 0; i < n && r.err == nil; i++ {
			dst[i].Pkts = r.uvarint()
		}
		if r.err == nil && sink != nil {
			sink(dst)
			clear(dst) // reused for the next chunk, which may be shorter
		}
	}
	query.PutRecordBuf(recs)
	return nil
}

// decodeDict is one records section's cumulative decode dictionaries.
// Like the encoder's, they are recycled: every reply used to grow a
// fresh pair, which at a few hundred records per reply cost more than
// the records themselves. release drops the path references (decoded
// records keep their own) and keeps capacity, unless a monster reply
// grew it past what is worth pinning.
type decodeDict struct {
	flows []types.FlowID
	paths []types.Path
}

var decodeDicts = sync.Pool{New: func() any { return new(decodeDict) }}

// maxPooledDict caps the capacity a recycled decode dictionary may keep.
const maxPooledDict = 1 << 16

func (d *decodeDict) release() {
	if cap(d.flows) > maxPooledDict || cap(d.paths) > maxPooledDict {
		return
	}
	clear(d.paths)
	d.flows, d.paths = d.flows[:0], d.paths[:0]
	decodeDicts.Put(d)
}

// readFlowDictDelta appends one chunk's new flow-dictionary entries to the
// cumulative dictionary (nil: a flows section's whole dictionary). Growth is bounded to the chunk's declared count
// so a hostile delta length cannot size an absurd allocation.
func readFlowDictDelta(r *reader, fd []types.FlowID) []types.FlowID {
	n := r.count("flow dictionary delta", maxElems)
	if len(fd)+n > maxElems {
		r.fail(fmt.Errorf("wire: corrupt frame: flow dictionary grows past cap %d", maxElems))
		return fd
	}
	fd = slices.Grow(fd, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		fd = append(fd, readFlowID(r))
	}
	return fd
}

// readPathDictDelta appends one chunk's new path-dictionary entries to the
// cumulative dictionary. Growth is bounded like readFlowDictDelta.
func readPathDictDelta(r *reader, pd []types.Path) []types.Path {
	n := r.count("path dictionary delta", maxElems)
	if len(pd)+n > maxElems {
		r.fail(fmt.Errorf("wire: corrupt frame: path dictionary grows past cap %d", maxElems))
		return pd
	}
	pd = slices.Grow(pd, min(n, 4096))
	for i := 0; i < n && r.err == nil; i++ {
		pd = append(pd, readPath(r))
	}
	return pd
}

// readDictIndex reads one dictionary index, bounds-checked against the
// dictionary size — an out-of-range index means a corrupt frame. Callers
// must check r.err before using the returned index.
func readDictIndex(r *reader, dictLen int, what string) uint64 {
	v := r.uvarint()
	if r.err == nil && v >= uint64(dictLen) {
		r.fail(fmt.Errorf("wire: corrupt %s dictionary: index %d out of range (dict has %d entries)", what, v, dictLen))
	}
	return v
}

// flowDict assigns dense indices to flow IDs in first-appearance order.
type flowDict struct {
	idx  map[types.FlowID]int
	list []types.FlowID
}

// Encoder dictionaries are recycled across sections: a batch reply
// carries one dictionary pair per host section, so a daemon fan-out
// builds hundreds of small maps per round trip. Pooling keeps the map
// buckets and entry slices warm; release() clears entries (and drops
// path references, so pooled dictionaries never pin caller data) but
// keeps capacity.
var (
	flowDicts = sync.Pool{New: func() any { return &flowDict{idx: make(map[types.FlowID]int, 64)} }}
	pathDicts = sync.Pool{New: func() any { return new(pathDict) }}
)

func getFlowDict() *flowDict { return flowDicts.Get().(*flowDict) }

func (d *flowDict) release() {
	clear(d.idx)
	d.list = d.list[:0]
	flowDicts.Put(d)
}

func (d *flowDict) index(f types.FlowID) int {
	if i, ok := d.idx[f]; ok {
		return i
	}
	i := len(d.list)
	d.idx[f] = i
	d.list = append(d.list, f)
	return i
}

func (d *flowDict) write(w *writer) {
	w.uvarint(uint64(len(d.list)))
	for _, f := range d.list {
		writeFlowID(w, f)
	}
}

// pathDict assigns dense indices to paths in first-appearance order. The
// interner looks a path up by its compact byte key without materialising
// the key as a string except on first appearance — index() is called
// once per record, and a per-call Path.Key() allocation was the hottest
// object count in the fan-out bench's profile.
type pathDict struct {
	ids  types.PathInterner
	list []types.Path
}

func getPathDict() *pathDict { return pathDicts.Get().(*pathDict) }

func (d *pathDict) release() {
	d.ids.Reset()
	clear(d.list)
	d.list = d.list[:0]
	pathDicts.Put(d)
}

func (d *pathDict) index(p types.Path) int {
	i, fresh := d.ids.Intern(p)
	if fresh {
		d.list = append(d.list, p)
	}
	return int(i)
}

func (d *pathDict) write(w *writer) {
	w.uvarint(uint64(len(d.list)))
	for _, p := range d.list {
		writePath(w, p)
	}
}

func writeFlowID(w *writer, f types.FlowID) {
	w.uvarint(uint64(f.SrcIP))
	w.uvarint(uint64(f.DstIP))
	w.uvarint(uint64(f.SrcPort))
	w.uvarint(uint64(f.DstPort))
	w.byte(f.Proto)
}

func readFlowID(r *reader) types.FlowID {
	return types.FlowID{
		SrcIP:   types.IP(r.uvarint()),
		DstIP:   types.IP(r.uvarint()),
		SrcPort: uint16(r.uvarint()),
		DstPort: uint16(r.uvarint()),
		Proto:   r.byte(),
	}
}

func writePath(w *writer, p types.Path) {
	w.uvarint(uint64(len(p)))
	for _, s := range p {
		w.uvarint(uint64(s))
	}
}

func readPath(r *reader) types.Path {
	n := r.count("path", maxPathLen)
	if n == 0 {
		return nil
	}
	p := make(types.Path, 0, min(n, 1024))
	for i := 0; i < n && r.err == nil; i++ {
		p = append(p, types.SwitchID(r.uvarint()))
	}
	return p
}

// writer wraps a buffered writer with varint helpers. Write errors stick
// inside bufio.Writer and surface at the final Flush. buf is the varint
// scratch, and the frame header's.
type writer struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.bw.Write(w.buf[:n])
}

func (w *writer) svarint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.bw.Write(w.buf[:n])
}

func (w *writer) byte(b byte) { w.bw.WriteByte(b) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.bw.WriteString(s)
}

// reader wraps a buffered reader with varint helpers and a sticky error:
// after the first failure every subsequent read is a no-op returning zero,
// so decoders stay straight-line and check err once per loop.
type reader struct {
	br  *bufio.Reader
	err error
	hdr [6]byte // the frame header's scratch
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.fail(fmt.Errorf("wire: truncated frame: %w", err))
	}
	return v
}

func (r *reader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.br)
	if err != nil {
		r.fail(fmt.Errorf("wire: truncated frame: %w", err))
	}
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.br.ReadByte()
	if err != nil {
		r.fail(fmt.Errorf("wire: truncated frame: %w", err))
	}
	return b
}

// count reads a length prefix and rejects values above max as corrupt.
func (r *reader) count(what string, max int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.fail(fmt.Errorf("wire: corrupt frame: %s count %d exceeds cap %d", what, v, max))
		return 0
	}
	return int(v)
}

// knownOps are the op names a result section can carry without the
// decoder allocating one: op() hands back the constant.
var knownOps = [...]query.Op{query.OpFlows, query.OpPaths, query.OpCount, query.OpDuration, query.OpPoorTCP,
	query.OpFSD, query.OpTopK, query.OpConformance, query.OpMatrix, query.OpRecords}

// op reads a result's op name. A name this build does not know still
// round-trips, as a fresh string.
func (r *reader) op() query.Op {
	n := r.count("string", maxOpLen)
	if r.err != nil || n == 0 {
		return ""
	}
	b, err := r.br.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a partial read
		}
		r.fail(fmt.Errorf("wire: truncated frame: %w", err))
		return ""
	}
	r.br.Discard(n)
	for _, op := range knownOps {
		if string(op) == string(b) {
			return op
		}
	}
	return query.Op(b)
}

// str reads a length-prefixed string capped at max bytes.
func (r *reader) str(max int) string {
	n := r.count("string", max)
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.fail(fmt.Errorf("wire: truncated frame: %w", err))
		return ""
	}
	return string(b)
}
