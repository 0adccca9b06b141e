package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// BenchmarkWireRoundtrip measures a full encode+decode of a 5000-record
// result — the controller-side cost of one host's reply — for the binary
// codec against the JSON path it replaces. Run with
// -benchmem: allocs/op is gated by the CI bench job alongside the medians.
func BenchmarkWireRoundtrip(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	res := randBenchResult(rng, 5000)

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteQuery(&buf, Meta{RecordsScanned: 5000}, res, false); err != nil {
				b.Fatal(err)
			}
			if _, _, err := ReadQuery(&buf); err != nil {
				b.Fatal(err)
			}
		}
		reportSize(b, res)
	})

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(res); err != nil {
				b.Fatal(err)
			}
			var got query.Result
			if err := json.NewDecoder(&buf).Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
		j, _ := json.Marshal(res)
		b.ReportMetric(float64(len(j)), "wire-bytes")
	})
}

// BenchmarkStreamEncode measures serving a 100k-record reply: `streamed`
// appends each record to a QueryStreamWriter (the server's O(chunk)
// path — B/op here is what a daemon allocates per huge reply), `buffered`
// materialises the full slice first and one-shots WriteQuery (the old
// path). The ≥4x B/op gap between them is the point of the chunked
// encoding; CI gates both against BENCH_BASELINE.txt.
func BenchmarkStreamEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := randBenchResult(rng, 100_000).Records

	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw, err := NewQueryStreamWriter(io.Discard, Meta{RecordsScanned: len(recs)}, query.OpRecords, false)
			if err != nil {
				b.Fatal(err)
			}
			for j := range recs {
				if err := sw.Append(&recs[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := sw.CloseWith(Meta{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// small: the common case — a reply of a hundred records. Its cost is
	// the writer's fixed part, which pooling the chunk buffer removed.
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw, err := NewQueryStreamWriter(io.Discard, Meta{RecordsScanned: len(recs)}, query.OpRecords, false)
			if err != nil {
				b.Fatal(err)
			}
			for j := range recs[:100] {
				if err := sw.Append(&recs[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := sw.CloseWith(Meta{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reply := make([]types.Record, 0, 1024)
			for j := range recs {
				reply = append(reply, recs[j])
			}
			res := &query.Result{Op: query.OpRecords, Records: reply}
			if err := WriteQuery(io.Discard, Meta{RecordsScanned: len(recs)}, res, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamDecode measures consuming that same 100k-record frame:
// `sink` hands each chunk to a callback over a reused scratch slice,
// `materialized` decodes the whole records section into one slice (the
// transport's path).
func BenchmarkStreamDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	res := randBenchResult(rng, 100_000)
	var frame bytes.Buffer
	if err := WriteQuery(&frame, Meta{RecordsScanned: 100_000}, res, false); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()

	b.Run("sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0
			_, _, err := ReadQueryChunks(bytes.NewReader(raw), func(chunk []types.Record) {
				total += len(chunk)
			})
			if err != nil {
				b.Fatal(err)
			}
			if total != 100_000 {
				b.Fatalf("decoded %d records", total)
			}
		}
	})

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, got, err := ReadQuery(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Records) != 100_000 {
				b.Fatalf("decoded %d records", len(got.Records))
			}
		}
	})

	// small: a hundred-record reply decoded as the transport does it —
	// into a pooled buffer the caller recycles — so what is left per
	// reply is the paths and the frame reader.
	var smallFrame bytes.Buffer
	small := &query.Result{Op: query.OpRecords, Records: res.Records[:100]}
	if err := WriteQuery(&smallFrame, Meta{RecordsScanned: 100}, small, false); err != nil {
		b.Fatal(err)
	}
	smallRaw := smallFrame.Bytes()
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, got, err := ReadQuery(bytes.NewReader(smallRaw))
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Records) != 100 {
				b.Fatalf("decoded %d records", len(got.Records))
			}
			query.PutRecordBuf(got.Records)
		}
	})
}

// BenchmarkRequestEncode measures one query-request body encode — the
// per-fan-out client cost at every hop — binary frame against the JSON
// body it replaces.
func BenchmarkRequestEncode(b *testing.B) {
	host := types.HostID(42)
	q := &query.Query{
		Op: query.OpConformance, Link: types.LinkID{A: 3, B: 9},
		Range: types.TimeRange{From: 0, To: types.TimeEnd}, K: 10, MaxPathLen: 6,
		Avoid:     []types.SwitchID{4, 5, 6, 7},
		Waypoints: []types.SwitchID{1, 2},
	}

	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteQueryRequest(&buf, &host, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "wire-bytes")
	})

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		payload := struct {
			Host  *types.HostID `json:"host,omitempty"`
			Query query.Query   `json:"query"`
		}{Host: &host, Query: *q}
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "wire-bytes")
	})
}

func reportSize(b *testing.B, res *query.Result) {
	b.Helper()
	var cw countWriter
	if err := WriteQuery(&cw, Meta{}, res, false); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cw), "wire-bytes")
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countWriter)(nil)

func randBenchResult(rng *rand.Rand, n int) *query.Result {
	return randResult(rng, n)
}
