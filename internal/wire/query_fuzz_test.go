package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// queryCorpusDir is where `go test -fuzz` looks for FuzzReadQuery's seeds.
const queryCorpusDir = "testdata/fuzz/FuzzReadQuery"

// querySeeds are the frames FuzzReadQuery starts from: a buffered frame of
// every section kind, a streamed records frame whose end marker carries a
// Meta delta, that streamed frame cut inside its end marker (the one seed
// that must be rejected), and a streamed frame with no records. The committed corpus also holds
// "flate-frame", kept to pin that a nonzero flags byte is rejected
// (TestUnknownFlagsRejected).
func querySeeds(tb testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(31))
	m := Meta{RecordsScanned: 4000, SegmentsScanned: 12, SegmentsPruned: 29, ColdLoads: 1, ScanTime: 1234567 * time.Nanosecond}
	seeds := make(map[string][]byte, 4)
	var buf bytes.Buffer
	if err := WriteQuery(&buf, m, fullResult(rng), false); err != nil {
		tb.Fatal(err)
	}
	seeds["buffered"] = bytes.Clone(buf.Bytes())

	buf.Reset()
	sw, err := NewQueryStreamWriter(&buf, Meta{RecordsScanned: m.RecordsScanned}, query.OpRecords, false)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range randResult(rng, 40).Records {
		if err := sw.Append(&rec); err != nil {
			tb.Fatal(err)
		}
	}
	delta := m
	delta.RecordsScanned = 0
	if err := sw.CloseWith(delta); err != nil {
		tb.Fatal(err)
	}
	streamed := bytes.Clone(buf.Bytes())
	seeds["streamed"] = streamed
	// The end marker closes the frame: its ScanTime varint is three bytes,
	// so two bytes short leaves one of them, with its continuation bit set.
	seeds["cut-in-end-marker"] = streamed[:len(streamed)-2]

	buf.Reset()
	if sw, err = NewQueryStreamWriter(&buf, Meta{}, query.OpRecords, false); err != nil {
		tb.Fatal(err)
	}
	if err := sw.CloseWith(Meta{SegmentsPruned: 3}); err != nil {
		tb.Fatal(err)
	}
	seeds["streamed-empty"] = bytes.Clone(buf.Bytes())
	return seeds
}

// TestQuerySeedCorpus: the seeds, fresh and as committed, decode — all but
// the one cut inside its end marker, which both readers reject.
func TestQuerySeedCorpus(t *testing.T) {
	for name, data := range querySeeds(t) {
		wantErr := name == "cut-in-end-marker"
		frames := []string{string(data)}
		if committed, ok := committedSeed(t, queryCorpusDir, name, data); ok {
			frames = append(frames, committed)
		}
		for _, frame := range frames {
			_, _, err := ReadQuery(strings.NewReader(frame))
			_, _, cerr := ReadQueryChunks(strings.NewReader(frame), func([]types.Record) {})
			if (err != nil) != wantErr || (cerr != nil) != wantErr {
				t.Errorf("seed %s: ReadQuery %v, ReadQueryChunks %v; want an error: %v", name, err, cerr, wantErr)
			}
		}
	}
}

// FuzzReadQuery drives the query frame's two decoders — ReadQuery, and
// ReadQueryChunks handing records out chunk by chunk — with arbitrary
// bytes. Neither may panic or allocate past what the section caps allow,
// and they must agree: on acceptance, on the Meta and on the result.
// Whatever they accept must re-encode to a frame that decodes to the same
// Meta and result, through WriteQuery and, when the result holds nothing
// but records, through QueryStreamWriter; no strict prefix of either
// re-encoded frame may be accepted.
func FuzzReadQuery(f *testing.F) {
	for _, data := range querySeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Meta
		var res *query.Result
		var err error
		checkDecodeAlloc(t, data, func() { m, res, err = ReadQuery(bytes.NewReader(data)) })
		var chunked []types.Record
		cm, cres, cerr := ReadQueryChunks(bytes.NewReader(data), func(chunk []types.Record) {
			chunked = append(chunked, chunk...)
		})
		if (err == nil) != (cerr == nil) {
			t.Fatalf("ReadQuery says %v, ReadQueryChunks %v", err, cerr)
		}
		if err != nil {
			return
		}
		cres.Records = chunked
		if cm != m || mustJSON(t, cres) != mustJSON(t, res) {
			t.Fatalf("the readers disagree:\n%+v %s\n%+v %s", m, mustJSON(t, res), cm, mustJSON(t, cres))
		}
		var frame bytes.Buffer
		if err := WriteQuery(&frame, m, res, false); err != nil {
			t.Fatal(err)
		}
		checkQueryFrame(t, "WriteQuery", frame.Bytes(), m, res)

		if mustJSON(t, query.Result{Op: res.Op, Records: res.Records}) != mustJSON(t, res) {
			return
		}
		var stream bytes.Buffer
		sw, err := NewQueryStreamWriter(&stream, Meta{}, res.Op, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Records {
			if err := sw.Append(&res.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.CloseWith(m); err != nil {
			t.Fatal(err)
		}
		checkQueryFrame(t, "QueryStreamWriter", stream.Bytes(), m, res)
	})
}

// checkQueryFrame asserts that frame, written by writer, decodes to m and
// res, and that no strict prefix of it decodes.
func checkQueryFrame(t *testing.T, writer string, frame []byte, m Meta, res *query.Result) {
	t.Helper()
	gm, got, err := ReadQuery(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("a frame from %s is rejected: %v", writer, err)
	}
	if gm != m || mustJSON(t, got) != mustJSON(t, res) {
		t.Fatalf("a frame from %s changed its answer:\n%+v %s\n%+v %s", writer, m, mustJSON(t, res), gm, mustJSON(t, got))
	}
	checkNoPrefix(t, frame, func(b []byte) error {
		_, _, err := ReadQuery(bytes.NewReader(b))
		return err
	})
}
