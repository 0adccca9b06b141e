package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// delayTarget evaluates after a delay of its own, so a batch's hosts finish
// in an order that is not the request's.
type delayTarget struct {
	Target
	delay time.Duration
}

func (t delayTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	time.Sleep(t.delay)
	return t.Target.ExecuteContext(ctx, q)
}

// postBatch serves one wire-encoded /batchquery through h, under ctx.
func postBatch(t *testing.T, h http.Handler, ctx context.Context, hosts []types.HostID, q query.Query, parallel int) *httptest.ResponseRecorder {
	t.Helper()
	var body bytes.Buffer
	if err := wire.WriteBatchRequest(&body, hosts, &q, parallel); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/batchquery", &body).WithContext(ctx)
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBatchSectionsInRequestOrder: with W = 4 and hosts that finish in a
// random order, every section still goes out in request order, carrying
// its own host's answer.
func TestBatchSectionsInRequestOrder(t *testing.T) {
	const hosts = 24
	rng := rand.New(rand.NewSource(1))
	targets := make(map[types.HostID]Target)
	var ids []types.HostID
	for i := hosts - 1; i >= 0; i-- {
		h := types.HostID(i)
		targets[h] = delayTarget{SnapshotTarget{Store: seedStore(i, 30)}, time.Duration(rng.Intn(3000)) * time.Microsecond}
		ids = append(ids, h)
	}
	handler := (&MultiAgentServer{Targets: targets}).Handler()
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	for round := 0; round < 3; round++ {
		rec := postBatch(t, handler, context.Background(), ids, q, 4)
		err := wire.ReadBatchEach(rec.Body, func(i, n int, sec *wire.BatchReply) error {
			if sec.Host != ids[i] || sec.Error != "" || len(sec.Result.Records) != 30 {
				t.Fatalf("section %d: host %v (asked %v), error %q, %d records", i, sec.Host, ids[i], sec.Error, len(sec.Result.Records))
			}
			for _, r := range sec.Result.Records {
				if r.Flow.DstIP != types.IP(ids[i]+1) {
					t.Fatalf("section %d (host %v) carries a record of host %v", i, ids[i], r.Flow.DstIP-1)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// countTarget counts the answers evaluated, and checks against the
// sections its test has consumed that the window never holds more than w.
type countTarget struct {
	Target
	evaluated, written, peak *atomic.Int32
	w                        int32
	t                        *testing.T
}

func (c countTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	res, err := c.Target.ExecuteContext(ctx, q)
	held := c.evaluated.Add(1) - c.written.Load()
	if held > c.w {
		c.t.Errorf("%d answers evaluated and not yet written, window %d", held, c.w)
	}
	for {
		peak := c.peak.Load()
		if held <= peak || c.peak.CompareAndSwap(peak, held) {
			break
		}
	}
	return res, err
}

// TestBatchWindowHoldsAtMostW: however slowly the writer drains it, the
// daemon holds at most W answers that are evaluated but not yet written —
// and does fill the window while the writer is busy: the writer here
// waits for the window to fill before it is done with each section.
func TestBatchWindowHoldsAtMostW(t *testing.T) {
	const hosts = 16
	for _, w := range []int32{1, 2, 4} {
		var evaluated, written, peak atomic.Int32
		ms := &MultiAgentServer{Targets: make(map[types.HostID]Target), Parallelism: int(w)}
		req := BatchQueryRequest{Query: query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}}
		for i := 0; i < hosts; i++ {
			h := types.HostID(i)
			ms.Targets[h] = countTarget{SnapshotTarget{Store: seedStore(i, 10)}, &evaluated, &written, &peak, w, t}
			req.Hosts = append(req.Hosts, h)
		}
		b := ms.openBatch(context.Background(), &req)
		for i := range req.Hosts {
			if rep := b.next(i); rep == nil || rep.Host != req.Hosts[i] || len(rep.Result.Records) != 10 {
				t.Fatalf("W=%d: section %d is %+v", w, i, rep)
			}
			full := min(int32(i)+w, hosts)
			for deadline := time.Now().Add(10 * time.Second); evaluated.Load() < full; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("W=%d: writing section %d, the window never filled: %d of %d hosts evaluated", w, i, evaluated.Load(), full)
				}
			}
			written.Add(1)
		}
		b.close()
		if evaluated.Load() != hosts || peak.Load() != w {
			t.Errorf("W=%d: %d evaluations for %d hosts, at most %d held at once (want exactly W)", w, evaluated.Load(), hosts, peak.Load())
		}
	}
}

// cancelTarget cancels the request as host at starts its evaluation.
type cancelTarget struct {
	Target
	cancel context.CancelFunc
}

func (c cancelTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	c.cancel()
	return c.Target.ExecuteContext(ctx, q)
}

// TestBatchCancelAfterFirstSection: once section 0 is out the status line
// is committed, so a request cancelled later cuts the frame short — which
// the reader rejects, so the controller's round fails whole — and the
// handler returns only after every worker it started has exited.
func TestBatchCancelAfterFirstSection(t *testing.T) {
	const hosts = 8
	for _, w := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		targets := make(map[types.HostID]Target)
		var ids []types.HostID
		for i := 0; i < hosts; i++ {
			h := types.HostID(i)
			targets[h] = SnapshotTarget{Store: seedStore(i, 10)}
			ids = append(ids, h)
		}
		// Host w+1 can only start once sections 0 and 1 are written.
		targets[types.HostID(w+1)] = cancelTarget{targets[types.HostID(w+1)], cancel}
		handler := (&MultiAgentServer{Targets: targets}).Handler()
		before := runtime.NumGoroutine()
		rec := postBatch(t, handler, ctx, ids, query.Query{Op: query.OpTopK, K: 3, Link: types.AnyLink}, w)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("W=%d: %d goroutines before the request, %d after the handler returned", w, before, after)
		}
		cancel()
		if rec.Code != http.StatusOK || !wire.IsWire(rec.Header().Get("Content-Type")) {
			t.Fatalf("W=%d: status %d, content type %q: section 0 was not out", w, rec.Code, rec.Header().Get("Content-Type"))
		}
		sections := 0
		err := wire.ReadBatchEach(bytes.NewReader(rec.Body.Bytes()), func(i, n int, sec *wire.BatchReply) error {
			sections++
			return nil
		})
		if err == nil || sections < 2 || sections >= hosts {
			t.Errorf("W=%d: a frame cut after %d sections read with error %v, want rejected after >= 2", w, sections, err)
		}
	}
}

// TestBatchJSONSpelling: curl's spelling of a fixed batch — records, an
// aggregate and an unknown host — is byte for byte what it was when the
// daemon still gathered every answer before writing.
func TestBatchJSONSpelling(t *testing.T) {
	targets := map[types.HostID]Target{
		0: SnapshotTarget{Store: seedStore(0, 3)},
		2: SnapshotTarget{Store: seedStore(2, 2)},
	}
	handler := (&MultiAgentServer{Targets: targets, Parallelism: 2}).Handler()
	for _, tc := range []struct {
		q    query.Query
		want string
	}{
		{query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}, batchJSONRecords},
		{query.Query{Op: query.OpTopK, K: 2, Link: types.AnyLink}, batchJSONTopK},
	} {
		body, err := json.Marshal(BatchQueryRequest{Hosts: []types.HostID{2, 99, 0}, Query: tc.q})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // the second over recycled buffers
			req := httptest.NewRequest(http.MethodPost, "/batchquery", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if got := rec.Body.String(); got != tc.want {
				t.Errorf("%s: /batchquery JSON:\n%s\nwant:\n%s", tc.q.Op, got, tc.want)
			}
		}
	}
}

// The /batchquery JSON for TestBatchJSONSpelling's batch. The segment
// counts follow the stripes the seeded flows hash to.
const (
	batchJSONRecords = `{"replies":[` +
		`{"host":2,"result":{"op":"records","records":[{"Flow":{"SrcIP":131072,"DstIP":3,"SrcPort":1000,"DstPort":80,"Proto":6},"Path":[2,102,0],"STime":0,"ETime":3000000,"Bytes":1000,"Pkts":1},{"Flow":{"SrcIP":131073,"DstIP":3,"SrcPort":1001,"DstPort":80,"Proto":6},"Path":[2,102,1],"STime":1000000,"ETime":4000000,"Bytes":1001,"Pkts":2}]},"records_scanned":2,"segments_scanned":2},` +
		`{"host":99,"result":{"op":""},"records_scanned":0,"error":"rpc: host h99 not served here"},` +
		`{"host":0,"result":{"op":"records","records":[{"Flow":{"SrcIP":0,"DstIP":1,"SrcPort":1000,"DstPort":80,"Proto":6},"Path":[0,100,0],"STime":0,"ETime":3000000,"Bytes":1000,"Pkts":1},{"Flow":{"SrcIP":1,"DstIP":1,"SrcPort":1001,"DstPort":80,"Proto":6},"Path":[0,100,1],"STime":1000000,"ETime":4000000,"Bytes":1001,"Pkts":2},{"Flow":{"SrcIP":2,"DstIP":1,"SrcPort":1002,"DstPort":80,"Proto":6},"Path":[0,100,2],"STime":2000000,"ETime":5000000,"Bytes":1002,"Pkts":3}]},"records_scanned":3,"segments_scanned":3}]}` + "\n"
	batchJSONTopK = `{"replies":[` +
		`{"host":2,"result":{"op":"topk","top":[{"flow":{"SrcIP":131073,"DstIP":3,"SrcPort":1001,"DstPort":80,"Proto":6},"bytes":1001,"pkts":2},{"flow":{"SrcIP":131072,"DstIP":3,"SrcPort":1000,"DstPort":80,"Proto":6},"bytes":1000,"pkts":1}]},"records_scanned":2,"segments_scanned":2},` +
		`{"host":99,"result":{"op":""},"records_scanned":0,"error":"rpc: host h99 not served here"},` +
		`{"host":0,"result":{"op":"topk","top":[{"flow":{"SrcIP":2,"DstIP":1,"SrcPort":1002,"DstPort":80,"Proto":6},"bytes":1002,"pkts":3},{"flow":{"SrcIP":1,"DstIP":1,"SrcPort":1001,"DstPort":80,"Proto":6},"bytes":1001,"pkts":2}]},"records_scanned":3,"segments_scanned":3}]}` + "\n"
)

// TestQueryJSONSpelling is TestBatchJSONSpelling's twin for /query: a
// records reply, an aggregate, a time-bounded scan that prunes every
// segment and a reply from an empty store spell their telemetry byte
// for byte as before — segments_* only when non-zero, and never the cold
// loads or the scan time.
func TestQueryJSONSpelling(t *testing.T) {
	targets := map[types.HostID]Target{
		0: SnapshotTarget{Store: seedStore(0, 3)},
		2: SnapshotTarget{Store: seedStore(2, 2)},
		5: SnapshotTarget{Store: seedStore(5, 0)},
	}
	handler := (&MultiAgentServer{Targets: targets}).Handler()
	later := types.TimeRange{From: 100 * types.Millisecond, To: 200 * types.Millisecond}
	for _, tc := range []struct {
		host types.HostID
		q    query.Query
		want string
	}{
		{0, query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}, queryJSONRecords},
		{2, query.Query{Op: query.OpTopK, K: 2, Link: types.AnyLink}, queryJSONTopK},
		{0, query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: later}, queryJSONPruned},
		{5, query.Query{Op: query.OpTopK, K: 2, Link: types.AnyLink}, queryJSONEmpty},
	} {
		body, err := json.Marshal(QueryRequest{Host: &tc.host, Query: tc.q})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != tc.want {
			t.Errorf("host %v %s: /query status %d, JSON:\n%s\nwant:\n%s", tc.host, tc.q.Op, rec.Code, got, tc.want)
		}
	}
}

// The /query JSON for TestQueryJSONSpelling's queries. The segment
// counts follow the stripes the seeded flows hash to.
const (
	queryJSONRecords = `{"result":{"op":"records","records":[{"Flow":{"SrcIP":0,"DstIP":1,"SrcPort":1000,"DstPort":80,"Proto":6},"Path":[0,100,0],"STime":0,"ETime":3000000,"Bytes":1000,"Pkts":1},{"Flow":{"SrcIP":1,"DstIP":1,"SrcPort":1001,"DstPort":80,"Proto":6},"Path":[0,100,1],"STime":1000000,"ETime":4000000,"Bytes":1001,"Pkts":2},{"Flow":{"SrcIP":2,"DstIP":1,"SrcPort":1002,"DstPort":80,"Proto":6},"Path":[0,100,2],"STime":2000000,"ETime":5000000,"Bytes":1002,"Pkts":3}]},"records_scanned":3,"segments_scanned":3}` + "\n"
	queryJSONTopK    = `{"result":{"op":"topk","top":[{"flow":{"SrcIP":131073,"DstIP":3,"SrcPort":1001,"DstPort":80,"Proto":6},"bytes":1001,"pkts":2},{"flow":{"SrcIP":131072,"DstIP":3,"SrcPort":1000,"DstPort":80,"Proto":6},"bytes":1000,"pkts":1}]},"records_scanned":2,"segments_scanned":2}` + "\n"
	queryJSONPruned  = `{"result":{"op":"records"},"records_scanned":3,"segments_pruned":3}` + "\n"
	queryJSONEmpty   = `{"result":{"op":"topk"},"records_scanned":0}` + "\n"
)
