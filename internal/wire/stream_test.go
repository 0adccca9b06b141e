package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pathdump/internal/query"
	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// TestStreamWriterMatchesWriteQuery pins the invariant that makes
// streaming transparent to clients: a frame produced record-by-record
// through QueryStreamWriter is byte-identical to the same reply encoded
// in one shot by WriteQuery.
func TestStreamWriterMatchesWriteQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nrec := range []int{1, DefaultChunkRecords, DefaultChunkRecords*2 + 37} {
		res := randResult(rng, nrec)
		m := Meta{RecordsScanned: nrec}
		var oneShot bytes.Buffer
		if err := WriteQuery(&oneShot, m, res, false); err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		sw, err := NewQueryStreamWriter(&streamed, m, res.Op, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Records {
			if err := sw.Append(&res.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.CloseWith(Meta{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oneShot.Bytes(), streamed.Bytes()) {
			t.Fatalf("nrec=%d: streamed frame differs from one-shot frame (%d vs %d bytes)",
				nrec, streamed.Len(), oneShot.Len())
		}
	}
}

// TestStreamWriterEmptyAndMetaPatch covers the two stream-only frame
// shapes: an empty records section (WriteQuery would omit it) and an end
// marker carrying a Meta delta measured after the head was written, which
// the reader adds to the head field by field.
func TestStreamWriterEmptyAndMetaPatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(*QueryStreamWriter) error
		want  Meta
	}{
		{"CloseWith", func(sw *QueryStreamWriter) error {
			return sw.CloseWith(Meta{RecordsScanned: 1, SegmentsScanned: 4, SegmentsPruned: 9, ColdLoads: 2, ScanTime: 1500 * time.Microsecond})
		}, Meta{RecordsScanned: 8, SegmentsScanned: 4, SegmentsPruned: 9, ColdLoads: 2, ScanTime: 1500 * time.Microsecond}},
		{"Close", func(sw *QueryStreamWriter) error { return sw.Close(4, 9) },
			Meta{RecordsScanned: 7, SegmentsScanned: 4, SegmentsPruned: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			sw, err := NewQueryStreamWriter(&buf, Meta{RecordsScanned: 7}, query.OpRecords, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.close(sw); err != nil {
				t.Fatal(err)
			}
			m, res, err := ReadQuery(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if m != tc.want {
				t.Fatalf("meta: got %+v want %+v", m, tc.want)
			}
			if res.Op != query.OpRecords || res.Records != nil {
				t.Fatalf("empty stream decoded to %+v", res)
			}
		})
	}
}

// TestStreamChunksArriveBeforeClose drives a stream through an io.Pipe
// and asserts the reader's chunk callback fires while the writer is still
// mid-stream — the property that lets query.StreamMerger start merging a
// host before its last byte arrives.
func TestStreamChunksArriveBeforeClose(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	res := randResult(rng, DefaultChunkRecords+16)
	pr, pw := io.Pipe()

	firstChunk := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		sw, err := NewQueryStreamWriter(pw, Meta{}, res.Op, false)
		if err != nil {
			writerDone <- err
			pw.CloseWithError(err)
			return
		}
		for i := range res.Records {
			if err := sw.Append(&res.Records[i]); err != nil {
				writerDone <- err
				pw.CloseWithError(err)
				return
			}
		}
		// The first full chunk has been flushed into the pipe; do not
		// Close until the reader proves it decoded that chunk.
		<-firstChunk
		err = sw.CloseWith(Meta{})
		writerDone <- err
		pw.Close()
	}()

	var got []types.Record
	chunks := 0
	_, _, err := ReadQueryChunks(pr, func(recs []types.Record) {
		if chunks == 0 {
			close(firstChunk)
		}
		chunks++
		got = append(got, recs...)
	})
	if err != nil {
		t.Fatalf("ReadQueryChunks: %v", err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("stream writer: %v", err)
	}
	if chunks < 2 {
		t.Fatalf("got %d chunks, want at least 2", chunks)
	}
	if !reflect.DeepEqual(got, res.Records) {
		t.Fatalf("reassembled records differ from input (%d vs %d records)", len(got), len(res.Records))
	}
}

// TestStreamWriterAbort verifies an abandoned stream leaves a frame
// decoders reject, and that the writer refuses further use.
func TestStreamWriterAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	res := randResult(rng, DefaultChunkRecords+1) // one chunk flushed, one record pending
	var buf bytes.Buffer
	sw, err := NewQueryStreamWriter(&buf, Meta{}, res.Op, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Records {
		if err := sw.Append(&res.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	sw.Abort()
	if err := sw.Append(&res.Records[0]); err == nil {
		t.Fatal("Append after Abort succeeded")
	}
	if _, _, err := ReadQuery(&buf); err == nil {
		t.Fatal("aborted stream decoded without error")
	}
}

// allocBytes reports the heap bytes allocated by one run of f, after a
// warm-up pass so pooled buffers don't count.
func allocBytes(f func()) uint64 {
	f() // warm pools
	var best uint64 = 1 << 62
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestStreamEncodeBytesOChunk is the tentpole's allocation gate: encoding
// a 100k-record reply through QueryStreamWriter must allocate at least 4x
// fewer bytes than the materialise-then-encode path it replaces, because
// the streamed server never holds the reply — only one chunk and the
// dictionaries.
func TestStreamEncodeBytesOChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const nrec = 100_000
	res := randResult(rng, nrec)

	streamed := allocBytes(func() {
		sw, err := NewQueryStreamWriter(io.Discard, Meta{}, res.Op, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Records {
			sw.Append(&res.Records[i])
		}
		if err := sw.CloseWith(Meta{}); err != nil {
			t.Fatal(err)
		}
	})
	buffered := allocBytes(func() {
		// The pre-streaming server: collect the whole reply into a fresh
		// slice (query.ExecuteContext's append loop), then encode the frame.
		reply := make([]types.Record, 0)
		for i := range res.Records {
			reply = append(reply, res.Records[i])
		}
		out := query.Result{Op: res.Op, Records: reply}
		if err := WriteQuery(io.Discard, Meta{}, &out, false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("streamed %dB, buffered %dB (%.1fx)", streamed, buffered, float64(buffered)/float64(streamed))
	if streamed*4 > buffered {
		t.Fatalf("streamed encode allocated %dB, buffered %dB: want at least 4x reduction", streamed, buffered)
	}
}

// fullQuery populates every Query field so request round trips exercise
// each column.
func fullQuery() *query.Query {
	return &query.Query{
		Op:         query.OpConformance,
		Link:       types.LinkID{A: 3, B: 9},
		Links:      []types.LinkID{{A: 1, B: 2}, {A: types.WildcardSwitch, B: 7}},
		Flow:       types.FlowID{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6},
		Path:       types.Path{1, 2, 3},
		Range:      types.TimeRange{From: -50, To: types.TimeEnd},
		K:          25,
		BinBytes:   1 << 20,
		Threshold:  3,
		MaxPathLen: 9,
		Avoid:      []types.SwitchID{4, 5},
		Waypoints:  []types.SwitchID{2},
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	host := types.HostID(77)
	for _, h := range []*types.HostID{nil, &host} {
		var buf bytes.Buffer
		q := fullQuery()
		if err := WriteQueryRequest(&buf, h, q); err != nil {
			t.Fatal(err)
		}
		gotHost, gotQ, err := ReadQueryRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if (h == nil) != (gotHost == nil) || (h != nil && *gotHost != *h) {
			t.Fatalf("host mismatch: got %v want %v", gotHost, h)
		}
		if !reflect.DeepEqual(gotQ, *q) {
			t.Fatalf("query mismatch:\ngot  %+v\nwant %+v", gotQ, *q)
		}
	}
	// The zero query must survive too (every field zero-valued).
	var buf bytes.Buffer
	if err := WriteQueryRequest(&buf, nil, &query.Query{Op: query.OpFlows}); err != nil {
		t.Fatal(err)
	}
	_, gotQ, err := ReadQueryRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ, query.Query{Op: query.OpFlows}) {
		t.Fatalf("zero query mismatch: %+v", gotQ)
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	hosts := []types.HostID{1, 5, 900000}
	var buf bytes.Buffer
	if err := WriteBatchRequest(&buf, hosts, fullQuery(), 8); err != nil {
		t.Fatal(err)
	}
	gotHosts, gotQ, parallel, err := ReadBatchRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHosts, hosts) || parallel != 8 {
		t.Fatalf("got hosts %v parallel %d", gotHosts, parallel)
	}
	if !reflect.DeepEqual(gotQ, *fullQuery()) {
		t.Fatalf("query mismatch: %+v", gotQ)
	}
}

// TestRequestKindMismatch posts each request frame to the wrong decoder:
// the kind byte must reject it before any field parses.
func TestRequestKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteQueryRequest(&buf, nil, fullQuery()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if _, _, _, err := ReadBatchRequest(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("query frame as batch: got %v, want kind error", err)
	}
	if _, _, err := ReadQuery(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("query request as query response: got %v, want kind error", err)
	}
	// Every proper prefix of a request frame must be rejected.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadQueryRequest(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(frame))
		}
	}
}

// TestStreamReplyAllocsAreNotPerChunk is the allocation guard for the
// writer's fixed cost: a hundred-record reply streamed through
// NewQueryStreamWriter → Close draws its chunk buffer, dictionaries and
// frame writer from pools, so nothing it allocates is sized by
// DefaultChunkRecords (a fresh chunk alone would be ~295 KB).
func TestStreamReplyAllocsAreNotPerChunk(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	recs := randResult(rand.New(rand.NewSource(21)), 100).Records
	reply := func() {
		sw, err := NewQueryStreamWriter(io.Discard, Meta{}, query.OpRecords, false)
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
	}
	reply() // warm the pools
	var before, after runtime.MemStats
	const rounds = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		reply()
	}
	runtime.ReadMemStats(&after)
	perReply := (after.TotalAlloc - before.TotalAlloc) / rounds
	chunkBytes := uint64(DefaultChunkRecords) * uint64(unsafe.Sizeof(types.Record{}))
	if perReply > chunkBytes/16 {
		t.Errorf("a 100-record streamed reply allocates %d B; a chunk is %d B — the fixed cost is back", perReply, chunkBytes)
	}
	if n := testing.AllocsPerRun(100, reply); n > 8 {
		t.Errorf("a 100-record streamed reply makes %v allocations, want <= 8", n)
	}
}
