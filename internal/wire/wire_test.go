package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pathdump/internal/query"
	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// randResult builds a pseudo-random result exercising every section with
// duplicate flows/paths so the dictionaries actually dedupe.
func randResult(rng *rand.Rand, nrec int) *query.Result {
	flows := make([]types.FlowID, 1+rng.Intn(8))
	for i := range flows {
		flows[i] = types.FlowID{
			SrcIP:   types.IP(rng.Uint32()),
			DstIP:   types.IP(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8(rng.Intn(256)),
		}
	}
	paths := make([]types.Path, 1+rng.Intn(4))
	for i := range paths {
		p := make(types.Path, 1+rng.Intn(6))
		for j := range p {
			p[j] = types.SwitchID(rng.Intn(1 << 16))
		}
		paths[i] = p
	}
	res := &query.Result{Op: query.OpRecords}
	t := int64(rng.Intn(1 << 20))
	for i := 0; i < nrec; i++ {
		// Timestamps wander in both directions so delta encoding sees
		// negative deltas too.
		t += int64(rng.Intn(2000)) - 500
		res.Records = append(res.Records, types.Record{
			Flow:  flows[rng.Intn(len(flows))],
			Path:  paths[rng.Intn(len(paths))],
			STime: types.Time(t),
			ETime: types.Time(t + int64(rng.Intn(1<<16))),
			Bytes: rng.Uint64() >> uint(rng.Intn(40)),
			Pkts:  uint64(rng.Intn(1 << 20)),
		})
	}
	return res
}

// fullResult populates every section of a result at once.
func fullResult(rng *rand.Rand) *query.Result {
	res := randResult(rng, 16)
	res.Op = query.OpTopK
	res.Bytes = rng.Uint64()
	res.Pkts = rng.Uint64()
	res.Duration = types.Time(rng.Int63())
	p := types.Path{1, 2, 3}
	res.Flows = []types.Flow{
		{ID: res.Records[0].Flow, Path: p},
		{ID: res.Records[1].Flow, Path: types.Path{4, 5}},
		{ID: res.Records[0].Flow, Path: p}, // duplicate, exercises dict reuse
	}
	res.Paths = []types.Path{p, {9}, nil}
	res.FlowIDs = []types.FlowID{res.Records[0].Flow, res.Records[1].Flow}
	res.Hists = []query.LinkHist{
		{Link: types.LinkID{A: 1, B: 2}, BinBytes: 1000, Bins: []uint64{3, 0, 7}},
		{Link: types.AnyLink, BinBytes: 500},
	}
	res.Top = []query.FlowBytes{{Flow: res.Records[0].Flow, Bytes: 42, Pkts: 7}}
	res.Violations = []query.Violation{{Flow: res.Records[1].Flow, Path: p}}
	res.Matrix = []query.MatrixCell{{SrcToR: 3, DstToR: 8, Bytes: 99}}
	return res
}

// normalize maps an encode→decode-invariant form: empty slices and nil
// decode identically, and zero-length paths come back nil.
func normalize(res *query.Result) {
	for i := range res.Paths {
		if len(res.Paths[i]) == 0 {
			res.Paths[i] = nil
		}
	}
	for i := range res.Records {
		if len(res.Records[i].Path) == 0 {
			res.Records[i].Path = nil
		}
	}
	for i := range res.Flows {
		if len(res.Flows[i].Path) == 0 {
			res.Flows[i].Path = nil
		}
	}
}

func roundTripQuery(t *testing.T, m Meta, res *query.Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteQuery(&buf, m, res, false); err != nil {
		t.Fatalf("WriteQuery: %v", err)
	}
	gotMeta, got, err := ReadQuery(&buf)
	if err != nil {
		t.Fatalf("ReadQuery: %v", err)
	}
	if gotMeta != m {
		t.Fatalf("meta mismatch: got %+v want %+v", gotMeta, m)
	}
	normalize(res)
	normalize(got)
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("result mismatch:\ngot  %+v\nwant %+v", got, res)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTripQuery(t, Meta{}, &query.Result{})
	roundTripQuery(t, Meta{}, &query.Result{Op: query.OpCount})
}

func TestRoundTripSingleRecord(t *testing.T) {
	res := &query.Result{Op: query.OpRecords, Records: []types.Record{{
		Flow:  types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		Path:  types.Path{1, 2, 3},
		STime: 100, ETime: 200, Bytes: 1500, Pkts: 1,
	}}}
	roundTripQuery(t, Meta{RecordsScanned: 1, SegmentsScanned: 2, SegmentsPruned: 3}, res)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nrec := rng.Intn(200)
		res := randResult(rng, nrec)
		m := Meta{RecordsScanned: rng.Intn(1 << 20), SegmentsScanned: rng.Intn(100), SegmentsPruned: rng.Intn(100)}
		roundTripQuery(t, m, res)
	}
}

func TestRoundTripAllSections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		roundTripQuery(t, Meta{}, fullResult(rng))
	}
}

func TestRoundTripLargeBatchOfRecords(t *testing.T) {
	// Larger than the 4096 progressive-allocation hint, so append-growth
	// paths run too.
	rng := rand.New(rand.NewSource(3))
	roundTripQuery(t, Meta{}, randResult(rng, 10_000))
}

func TestRoundTripBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	replies := []BatchReply{
		{Host: 1, Meta: Meta{RecordsScanned: 5}, Result: *randResult(rng, 20)},
		{Host: 2, Error: "deadline exceeded"},
		{Host: 900, Result: *fullResult(rng)},
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, replies, false); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(got) != len(replies) {
		t.Fatalf("got %d replies, want %d", len(got), len(replies))
	}
	for i := range got {
		normalize(&got[i].Result)
		normalize(&replies[i].Result)
		if !reflect.DeepEqual(got[i], replies[i]) {
			t.Fatalf("reply %d mismatch:\ngot  %+v\nwant %+v", i, got[i], replies[i])
		}
	}
}

// TestBatchLongHostErrorIsCut: one host answering with an error longer
// than the decoder's cap used to make ReadBatch reject the whole frame,
// every other host's answer with it. The writer cuts the error to the
// cap (the two share one constant), so the frame decodes: the others
// intact, the long error shortened.
func TestBatchLongHostErrorIsCut(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	long := strings.Repeat("scan failed: cold segment 000123 unreadable; ", 10<<10/45+1)
	if len(long) < 10<<10 {
		t.Fatalf("the long error is only %d bytes", len(long))
	}
	replies := []BatchReply{
		{Host: 1, Meta: Meta{RecordsScanned: 5}, Result: *randResult(rng, 20)},
		{Host: 2, Error: long},
		{Host: 3, Result: *fullResult(rng)},
		{Host: 4, Error: long[:maxErrLen]}, // exactly at the cap: untouched
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, replies, false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatalf("a batch with one %d-byte host error does not decode: %v", len(long), err)
	}
	if len(got) != len(replies) {
		t.Fatalf("got %d replies, want %d", len(got), len(replies))
	}
	for _, i := range []int{0, 2} {
		normalize(&got[i].Result)
		normalize(&replies[i].Result)
		if !reflect.DeepEqual(got[i], replies[i]) {
			t.Errorf("reply %d did not survive its neighbour's long error", i)
		}
	}
	for _, i := range []int{1, 3} {
		if got[i].Host != replies[i].Host || got[i].Error != long[:maxErrLen] {
			t.Errorf("reply %d: host %v with a %d-byte error, want host %v and the first %d bytes",
				i, got[i].Host, len(got[i].Error), replies[i].Host, maxErrLen)
		}
	}
}

// TestReadBatchEach: sections arrive one at a time, in order, each told
// its index and the frame's count; what a section holds stays intact
// after later sections are decoded (no scratch is reused); an error from
// the consumer stops the decode and comes back as is; and a known op
// name costs the decoder no allocation while an unknown one still
// round-trips.
func TestReadBatchEach(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	replies := []BatchReply{
		{Host: 7, Meta: Meta{RecordsScanned: 5, SegmentsScanned: 2}, Result: *randResult(rng, 30)},
		{Host: 8, Error: "deadline exceeded"},
		{Host: 9, Result: query.Result{Op: "an-op-from-the-future", Bytes: 1}},
		{Host: 10, Result: *fullResult(rng)},
	}
	var frame bytes.Buffer
	if err := WriteBatch(&frame, replies, false); err != nil {
		t.Fatal(err)
	}
	var kept []BatchReply
	err := ReadBatchEach(bytes.NewReader(frame.Bytes()), func(i, n int, rep *BatchReply) error {
		if i != len(kept) || n != len(replies) {
			t.Errorf("section %d of %d announced as %d of %d", len(kept), len(replies), i, n)
		}
		kept = append(kept, *rep)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		normalize(&kept[i].Result)
		normalize(&replies[i].Result)
		if !reflect.DeepEqual(kept[i], replies[i]) {
			t.Errorf("section %d changed after it was handed over:\ngot  %+v\nwant %+v", i, kept[i], replies[i])
		}
	}

	stop := errors.New("not my host")
	seen := 0
	err = ReadBatchEach(bytes.NewReader(frame.Bytes()), func(i, n int, rep *BatchReply) error {
		if seen++; i == 1 {
			return stop
		}
		return nil
	})
	if err != stop || seen != 2 {
		t.Errorf("consumer error: ReadBatchEach returned %v after %d sections, want the consumer's error after 2", err, seen)
	}

	name := []byte("\x04topk")
	src := bytes.NewReader(name)
	br := bufio.NewReader(src)
	var op query.Op
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(name)
		br.Reset(src)
		r := reader{br: br}
		op = r.op()
	})
	if op != query.OpTopK || allocs != 0 {
		t.Errorf("decoding the op name %q cost %.0f allocations, want topk and none", op, allocs)
	}
}

// recordsBatch encodes a batch frame of n records sections, per records
// each, and returns it with the bytes one section's record slice takes.
func recordsBatch(t *testing.T, n, per int) ([]byte, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	replies := make([]BatchReply, n)
	for i := range replies {
		replies[i] = BatchReply{Host: types.HostID(i), Result: *randResult(rng, per)}
	}
	var frame bytes.Buffer
	if err := WriteBatch(&frame, replies, false); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes(), uint64(per) * uint64(unsafe.Sizeof(types.Record{}))
}

// drainRecordPool empties the record pool, as a garbage collection does
// to one that sat idle.
func drainRecordPool() {
	for query.GetRecordBufN(0) != nil {
	}
}

// TestBatchSectionsRecycleRecordBuffers: a consumer that hands each
// section's records back once it is done with them — the controller,
// after its merge — decodes the next frame into the same buffers, so in
// steady state a two-section records frame allocates no record slice;
// and a frame cut in the middle of its second section fails as a whole,
// with the half-decoded section's buffer back in the pool, cleared.
func TestBatchSectionsRecycleRecordBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	frame, sectionBytes := recordsBatch(t, 2, 200)
	src := bytes.NewReader(frame)
	decode := func() {
		src.Reset(frame)
		err := ReadBatchEach(src, func(i, n int, rep *BatchReply) error {
			if len(rep.Result.Records) != 200 {
				t.Errorf("section %d holds %d records, want 200", i, len(rep.Result.Records))
			}
			query.PutRecordBuf(rep.Result.Records)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := allocBytes(decode); got >= sectionBytes {
		t.Errorf("decoding a recycled two-section frame allocates %d B; one section's records are %d B — a record slice is allocated per section again", got, sectionBytes)
	}

	drainRecordPool()
	delivered := 0
	err := ReadBatchEach(bytes.NewReader(frame[:len(frame)-40]), func(i, n int, rep *BatchReply) error {
		delivered++
		return nil
	})
	if err == nil || delivered != 1 {
		t.Fatalf("a frame cut inside its second section: error %v after %d sections delivered, want an error after 1", err, delivered)
	}
	buf := query.GetRecordBufN(0)
	if cap(buf) < 200 {
		t.Fatalf("the half-decoded section's buffer did not come back to the pool (got capacity %d)", cap(buf))
	}
	for i, rec := range buf[:cap(buf)] {
		if rec.Path != nil || rec.Flow != (types.FlowID{}) {
			t.Fatalf("the pooled buffer still holds record %d of the failed section: %+v", i, rec)
		}
	}
}

// TestPooledBuffersHoldNoStaleRecords: PutRecordBuf clears a buffer up
// to its length, so the two users that shorten theirs — the stream
// writer between chunks, the chunk-at-a-time decoder from a long chunk
// to a short one — clear what they cut off: after a two-chunk reply has
// been through each, what they hand back pins no path to its capacity.
func TestPooledBuffersHoldNoStaleRecords(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	recs := randResult(rand.New(rand.NewSource(23)), DefaultChunkRecords+100).Records
	stale := func(who string) {
		t.Helper()
		buf := query.GetRecordBufN(0)
		if cap(buf) < DefaultChunkRecords {
			t.Fatalf("%s: pooled buffer of capacity %d, want the one a full chunk went through", who, cap(buf))
		}
		for i, rec := range buf[:cap(buf)] {
			if rec.Path != nil || rec.Flow != (types.FlowID{}) {
				t.Fatalf("%s: pooled buffer still holds a record at %d of %d: %+v", who, i, cap(buf), rec)
			}
		}
	}
	drainRecordPool()
	var frame bytes.Buffer
	sw, err := NewQueryStreamWriter(&frame, Meta{}, query.OpRecords, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := sw.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.CloseWith(Meta{}); err != nil {
		t.Fatal(err)
	}
	stale("stream writer")
	seen := 0
	if _, _, err := ReadQueryChunks(&frame, func(chunk []types.Record) { seen += len(chunk) }); err != nil || seen != len(recs) {
		t.Fatalf("decoded %d of %d records: %v", seen, len(recs), err)
	}
	stale("chunk decoder")
}

// TestColdPoolSizesBuffersByWhatArrives: on an empty record pool — a
// controller's first query, or its first after an idle spell — a
// 128-section frame of four records apiece costs about its records, not a
// pool-sized buffer per section (128 × 72 KB when the pool made 1,024-
// record buffers).
func TestColdPoolSizesBuffersByWhatArrives(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	frame, _ := recordsBatch(t, 128, 4)
	kept := make([][]types.Record, 0, 128)
	decode := func() {
		err := ReadBatchEach(bytes.NewReader(frame), func(i, n int, rep *BatchReply) error {
			kept = append(kept, rep.Result.Records)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// allocBytes warms the frame reader and the decode dictionaries and
	// keeps the cheapest of its runs (a collection in the middle of one
	// empties those pools too); the sections' buffers stay with the caller,
	// so every run starts on a record pool with nothing in it.
	got := allocBytes(func() {
		kept = kept[:0]
		drainRecordPool()
		decode()
	})
	if got >= 64<<10 {
		t.Errorf("128 sections of 4 records on an empty pool allocate %d B, want < 64 KiB", got)
	}
}

func TestEmptyBatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, nil, false); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d replies, want 0", len(got))
	}
}

// TestTruncatedFrame verifies that every proper prefix of a valid frame is
// rejected with an error — not a panic, not a silent partial decode.
func TestTruncatedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := WriteQuery(&buf, Meta{RecordsScanned: 9}, fullResult(rng), false); err != nil {
		t.Fatalf("WriteQuery: %v", err)
	}
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadQuery(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(frame))
		}
	}
}

func TestBadMagicAndKind(t *testing.T) {
	if _, _, err := ReadQuery(strings.NewReader("{\"op\":\"flows\"}")); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("JSON body: got %v, want bad-magic error", err)
	}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("batch frame as query: got %v, want kind error", err)
	}
}

// TestUnknownFlagsRejected: the flags byte is reserved, so every frame
// reader rejects a frame that sets any bit of it. 0x01 is the bit an
// earlier build set on a DEFLATE-compressed body; the "flate-frame" seeds
// it wrote into the committed fuzz corpora pin the rejection on its real
// bytes.
func TestUnknownFlagsRejected(t *testing.T) {
	var q, b bytes.Buffer
	if err := WriteQuery(&q, Meta{}, &query.Result{}, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatch(&b, nil, false); err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name   string
		frame  []byte
		corpus string
		read   func(io.Reader) error
	}{
		{"ReadQuery", q.Bytes(), queryCorpusDir, func(r io.Reader) error {
			_, _, err := ReadQuery(r)
			return err
		}},
		{"ReadQueryChunks", q.Bytes(), queryCorpusDir, func(r io.Reader) error {
			_, _, err := ReadQueryChunks(r, func([]types.Record) {})
			return err
		}},
		{"ReadBatchEach", b.Bytes(), batchCorpusDir, func(r io.Reader) error {
			return ReadBatchEach(r, func(int, int, *BatchReply) error { return nil })
		}},
	}
	for _, rd := range readers {
		for _, flags := range []byte{0x01, 0x80} {
			frame := bytes.Clone(rd.frame)
			frame[5] = flags
			if err := rd.read(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "unknown frame flags") {
				t.Errorf("%s, flags %#x: got %v, want unknown-flags error", rd.name, flags, err)
			}
		}
		path := filepath.Join(rd.corpus, "flate-frame")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.read(strings.NewReader(parseSeed(t, path, raw))); err == nil || !strings.Contains(err.Error(), "unknown frame flags") {
			t.Errorf("%s, committed %s: got %v, want unknown-flags error", rd.name, path, err)
		}
	}
}

// TestCompressRefused: the writers that still take a compress argument
// refuse true and write nothing, since no frame may set its flags byte.
func TestCompressRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteQuery(&buf, Meta{}, &query.Result{}, true); err == nil {
		t.Error("WriteQuery accepted compress=true")
	}
	if err := WriteBatch(&buf, nil, true); err == nil {
		t.Error("WriteBatch accepted compress=true")
	}
	if _, err := NewQueryStreamWriter(&buf, Meta{}, query.OpRecords, true); err == nil {
		t.Error("NewQueryStreamWriter accepted compress=true")
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes written for refused frames", buf.Len())
	}
}

// recordsFramePrefix writes everything in a records-op frame body up to
// the records section, which the caller then hand-builds.
func recordsFramePrefix(w *writer) {
	writeMeta(w, Meta{})
	w.str(string(query.OpRecords))
	w.uvarint(0) // Bytes
	w.uvarint(0) // Pkts
	w.svarint(0) // Duration
	w.uvarint(secRecords)
}

// writeTestChunk hand-builds one single-record chunk with the given flow
// index and ndict fresh dictionary entries.
func writeTestChunk(w *writer, ndict int, flowIdx uint64) {
	w.uvarint(1) // one record in this chunk
	w.uvarint(uint64(ndict) /* flow dict delta */)
	for i := 0; i < ndict; i++ {
		writeFlowID(w, types.FlowID{SrcIP: types.IP(i + 1)})
	}
	w.uvarint(uint64(ndict) /* path dict delta */)
	for i := 0; i < ndict; i++ {
		writePath(w, types.Path{types.SwitchID(i + 1)})
	}
	w.uvarint(flowIdx)
	w.uvarint(0) // path index
	w.svarint(0) // ΔSTime
	w.svarint(0) // ΔETime
	w.uvarint(0) // bytes
	w.uvarint(0) // pkts
}

// TestCorruptDictionaryRejected hand-builds a records frame whose index
// column points past the end of the flow dictionary.
func TestCorruptDictionaryRejected(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, kindQuery, func(w *writer) {
		recordsFramePrefix(w)
		writeTestChunk(w, 1, 7) // flow index 7 — dict has one entry
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "corrupt flow dictionary") {
		t.Fatalf("got %v, want corrupt-dictionary error", err)
	}
}

// TestCorruptDictionaryLaterChunk points a second chunk's index column
// past the cumulative dictionary: the first chunk must decode, the second
// must fail — the bounds check tracks the growing dictionary, not the
// per-chunk delta.
func TestCorruptDictionaryLaterChunk(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, kindQuery, func(w *writer) {
		recordsFramePrefix(w)
		writeTestChunk(w, 2, 1) // valid: cumulative dict has 2 entries
		writeTestChunk(w, 1, 3) // index 3 past the 3-entry cumulative dict
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "corrupt flow dictionary") {
		t.Fatalf("got %v, want corrupt-dictionary error", err)
	}
	// Index 2 in the second chunk is in range only because dictionaries
	// are cumulative; a fresh-per-chunk decoder would reject it.
	buf.Reset()
	err = writeFrame(&buf, kindQuery, func(w *writer) {
		recordsFramePrefix(w)
		writeTestChunk(w, 2, 1)
		writeTestChunk(w, 1, 2) // cumulative index 2 = the third entry
		w.uvarint(0)            // end marker
		writeMeta(w, Meta{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, res, err := ReadQuery(&buf); err != nil {
		t.Fatalf("cumulative index decode: %v", err)
	} else if len(res.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(res.Records))
	}
}

// TestCorruptChunkHeaderRejected feeds a chunk count above the per-chunk
// cap and a records total crossing the section cap.
func TestCorruptChunkHeaderRejected(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, kindQuery, func(w *writer) {
		recordsFramePrefix(w)
		w.uvarint(maxChunk + 1) // chunk claims more records than the cap
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversized chunk: got %v, want count-cap error", err)
	}
	buf.Reset()
	err = writeFrame(&buf, kindQuery, func(w *writer) {
		recordsFramePrefix(w)
		w.uvarint(1)       // one record
		w.uvarint(1 << 40) // absurd flow-dictionary delta
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("absurd dict delta: got %v, want count-cap error", err)
	}
}

// TestTruncatedMidChunk cuts a multi-chunk frame in the middle of its
// second chunk and at every boundary around the end marker.
func TestTruncatedMidChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	res := randResult(rng, DefaultChunkRecords+100) // two chunks
	var buf bytes.Buffer
	if err := WriteQuery(&buf, Meta{}, res, false); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// Sampled prefixes through the body (every prefix would be
	// O(frame²)), then every byte around the chunk boundary region and
	// the end marker, where an off-by-one would actually live.
	for cut := len(frame) / 2; cut < len(frame); cut += 97 {
		if _, _, err := ReadQuery(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(frame))
		}
	}
	for cut := max(0, len(frame)-200); cut < len(frame); cut++ {
		if _, _, err := ReadQuery(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(frame))
		}
	}
}

// TestHugeCountRejected verifies a hostile length prefix fails fast
// instead of sizing an allocation from it.
func TestHugeCountRejected(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, kindQuery, func(w *writer) {
		writeMeta(w, Meta{})
		w.str(string(query.OpRecords))
		w.uvarint(0)
		w.uvarint(0)
		w.svarint(0)
		w.uvarint(secPaths)
		w.uvarint(1 << 40) // absurd path count
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadQuery(&buf); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("got %v, want count-cap error", err)
	}
}

func TestNegotiationHelpers(t *testing.T) {
	if !Accepted(ContentType + ", application/json") {
		t.Fatal("Accepted should match an Accept list containing the wire type")
	}
	if Accepted("application/json") {
		t.Fatal("Accepted should reject a JSON-only Accept list")
	}
	if !IsWire(ContentType) || IsWire("application/json; charset=utf-8") {
		t.Fatal("IsWire misclassifies content types")
	}
}

// TestWireSmallerThanJSON pins the point of the exercise: the columnar
// encoding of a realistic record batch is at least 5x smaller than JSON.
func TestWireSmallerThanJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	res := randResult(rng, 2000)
	var buf bytes.Buffer
	if err := WriteQuery(&buf, Meta{}, res, false); err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len()*5 > len(j) {
		t.Fatalf("wire %dB vs json %dB: expected ≥5x smaller", buf.Len(), len(j))
	}
	t.Logf("wire %dB, json %dB (%.1fx)", buf.Len(), len(j), float64(len(j))/float64(buf.Len()))
}

// TestFrameCodecAllocs pins a round trip at the cost of what it decodes:
// the frame writer and reader, their bufio buffers and header scratch
// come from pools, and a request's op name decodes to the interned
// constant. A count reply costs the decoded *Result; a batch request the
// host list.
func TestFrameCodecAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	var buf bytes.Buffer
	src := bytes.NewReader(nil)
	res := &query.Result{Op: query.OpCount, Bytes: 5000, Pkts: 5}
	countReply := func() {
		buf.Reset()
		if err := WriteQuery(&buf, Meta{RecordsScanned: 1}, res, false); err != nil {
			t.Fatal(err)
		}
		src.Reset(buf.Bytes())
		if _, got, err := ReadQuery(src); err != nil || got.Bytes != res.Bytes {
			t.Fatalf("count reply round trip: %+v, %v", got, err)
		}
	}
	hosts := []types.HostID{1, 5, 900000}
	q := &query.Query{Op: query.OpTopK, K: 10}
	batchRequest := func() {
		buf.Reset()
		if err := WriteBatchRequest(&buf, hosts, q, 2); err != nil {
			t.Fatal(err)
		}
		src.Reset(buf.Bytes())
		if got, gotQ, _, err := ReadBatchRequest(src); err != nil || len(got) != len(hosts) || gotQ.Op != q.Op {
			t.Fatalf("batch request round trip: %v %+v, %v", got, gotQ, err)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{{"count reply", countReply}, {"batch request", batchRequest}} {
		c.f() // warm the pools
		if n := testing.AllocsPerRun(100, c.f); n > 1 {
			t.Errorf("%s round trip: %v allocations, want <= 1", c.name, n)
		}
	}
}

// TestFramePoolNoStickyError: a pooled reader that failed a frame — on
// its header, or in its body with bytes still buffered — decodes the
// next frame from a fresh source with no error and nothing left over.
func TestFramePoolNoStickyError(t *testing.T) {
	var valid bytes.Buffer
	want := &query.Result{Op: query.OpCount, Bytes: 7, Pkts: 1}
	if err := WriteQuery(&valid, Meta{RecordsScanned: 3}, want, false); err != nil {
		t.Fatal(err)
	}
	var big bytes.Buffer
	if err := WriteQuery(&big, Meta{}, randResult(rand.New(rand.NewSource(3)), 200), false); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(big.Bytes())
	// After the header and an empty Meta (five zero varints) comes the op
	// name's length: past its cap, the body fails with most of it buffered.
	corrupt[11], corrupt[12] = 0xff, 0x7f
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"bad magic", []byte(`{"op":"count"}`)},
		{"truncated body", big.Bytes()[:big.Len()/2]},
		{"corrupt body", corrupt},
	} {
		if _, _, err := ReadQuery(bytes.NewReader(c.frame)); err == nil {
			t.Fatalf("%s: decoded without error", c.name)
		}
		m, got, err := ReadQuery(bytes.NewReader(valid.Bytes()))
		if err != nil {
			t.Fatalf("valid frame after a %s: %v", c.name, err)
		}
		if m.RecordsScanned != 3 || got.Bytes != want.Bytes || got.Pkts != want.Pkts || got.Op != want.Op {
			t.Errorf("valid frame after a %s decoded as %+v %+v", c.name, m, got)
		}
	}
}
