// Tests for the binary wire data plane: content negotiation and what is
// left of the encoding matrix, body-size limits, well-formed error
// responses, alarm drop accounting, and racy fan-out over the pooled
// transport.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// What must satisfy Target, checked at compile time: the live agent, the
// snapshot target, and the wrapper shape the rule prescribes — embed a
// Target, override only what changes (here Install and Uninstall, the
// pair bench/live.go's lockedAgent overrides).
type installOverride struct{ *agent.Agent }

func (installOverride) Install(query.Query, types.Time) int { return 1 }
func (installOverride) Uninstall(int) error                 { return nil }

var (
	_ Target = (*agent.Agent)(nil)
	_ Target = SnapshotTarget{}
	_ Target = installOverride{}
)

// seedStore fills a store with records for a deterministic host-specific
// flow population.
func seedStore(host int, nrec int) *tib.Store {
	st := tib.NewStore()
	for i := 0; i < nrec; i++ {
		st.Add(types.Record{
			Flow:  seedFlow(host, i),
			Path:  types.Path{types.SwitchID(host), types.SwitchID(host + 100), types.SwitchID(i % 7)},
			STime: types.Time(i) * types.Millisecond,
			ETime: types.Time(i+3) * types.Millisecond,
			Bytes: uint64(1000 + i),
			Pkts:  uint64(1 + i%5),
		})
	}
	return st
}

// seedFlow is the flow of seedStore's i-th record at host.
func seedFlow(host, i int) types.FlowID {
	return types.FlowID{
		SrcIP:   types.IP(host<<16 | i%17),
		DstIP:   types.IP(host + 1),
		SrcPort: uint16(1000 + i%29),
		DstPort: 80,
		Proto:   types.ProtoTCP,
	}
}

// multiDaemon starts one MultiAgentServer over nhosts snapshot targets
// starting at host ID base.
func multiDaemon(t *testing.T, base, nhosts, nrec int) (*httptest.Server, []types.HostID) {
	t.Helper()
	targets := make(map[types.HostID]Target)
	var hosts []types.HostID
	for i := 0; i < nhosts; i++ {
		h := types.HostID(base + i)
		targets[h] = SnapshotTarget{Store: seedStore(base+i, nrec)}
		hosts = append(hosts, h)
	}
	srv := httptest.NewServer((&MultiAgentServer{Targets: targets}).Handler())
	t.Cleanup(srv.Close)
	return srv, hosts
}

// postJSON is curl: a raw JSON POST with no Accept header (plus any
// extra headers). The reply must be a 200 in JSON; it is decoded into
// out.
func postJSON(t *testing.T, url string, hdr http.Header, in, out interface{}) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s = %d %q: %s", url, resp.StatusCode, ct, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// canon renders a result in its JSON spelling, which erases the one
// difference the two decoders are allowed: nil versus empty slices.
func canon(t *testing.T, res query.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matrixQueries is one query per op a snapshot target serves (poor_tcp
// needs a live agent: TestSnapshotTargetUnsupportedOp), aimed at
// seedStore's population for host.
func matrixQueries(host int) []query.Query {
	link := types.LinkID{A: types.SwitchID(host), B: types.SwitchID(host + 100)}
	return []query.Query{
		{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime},
		{Op: query.OpFlows, Link: link},
		{Op: query.OpPaths, Flow: seedFlow(host, 3), Link: types.AnyLink},
		{Op: query.OpCount, Flow: seedFlow(host, 3)},
		{Op: query.OpDuration, Flow: seedFlow(host, 3)},
		{Op: query.OpFSD, Links: []types.LinkID{link}, BinBytes: 100},
		{Op: query.OpTopK, K: 5},
		{Op: query.OpConformance, Avoid: []types.SwitchID{types.SwitchID(host + 100)}},
		{Op: query.OpMatrix},
	}
}

// TestWireFallbackMatrix is the encoding matrix that still exists. The
// transport has one encoding and so has the daemon, so the one axis is
// the client: the transport versus curl — a raw JSON POST offering
// nothing in Accept, which the servers answer in JSON because they follow
// the request. For every op, on a one-host and a three-host daemon,
// through /query and /batchquery, both must return the same result.
func TestWireFallbackMatrix(t *testing.T) {
	const base, nrec = 10, 50
	type daemon struct {
		url   string
		hosts []types.HostID
		tr    *HTTPTransport
	}
	fleet := func(t *testing.T) []daemon {
		var ds []daemon
		for _, nhosts := range []int{1, 3} {
			srv, hosts := multiDaemon(t, base, nhosts, nrec)
			urls := make(map[types.HostID]string)
			for _, h := range hosts {
				urls[h] = srv.URL
			}
			ds = append(ds, daemon{srv.URL, hosts, &HTTPTransport{URLs: urls}})
		}
		return ds
	}
	// viaTransport answers q through the wire client: per-host /query for
	// every host, and QueryMany (one /batchquery on the three-host daemon).
	viaTransport := func(t *testing.T, d daemon, q query.Query) (perHost, batched []string) {
		for _, h := range d.hosts {
			res, meta, err := d.tr.Query(context.Background(), h, q)
			if err != nil {
				t.Fatalf("%s at %v: %v", q.Op, h, err)
			}
			if meta.RecordsScanned != nrec {
				t.Fatalf("%s at %v: meta.RecordsScanned = %d, want %d", q.Op, h, meta.RecordsScanned, nrec)
			}
			perHost = append(perHost, canon(t, res))
		}
		replies, err := d.tr.QueryMany(context.Background(), d.hosts, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range replies {
			if rep.Err != nil {
				t.Fatalf("%s at %v: %v", q.Op, rep.Host, rep.Err)
			}
			batched = append(batched, canon(t, rep.Result))
		}
		return perHost, batched
	}
	// viaCurl answers q the way the docs' examples do.
	viaCurl := func(t *testing.T, d daemon, q query.Query) (perHost, batched []string) {
		for i := range d.hosts {
			var resp QueryResponse
			postJSON(t, d.url+"/query", nil, QueryRequest{Host: &d.hosts[i], Query: q}, &resp)
			if resp.RecordsScanned != nrec {
				t.Fatalf("%s at %v: records_scanned = %d, want %d", q.Op, d.hosts[i], resp.RecordsScanned, nrec)
			}
			perHost = append(perHost, canon(t, resp.Result))
		}
		var resp BatchQueryResponse
		postJSON(t, d.url+"/batchquery", nil, BatchQueryRequest{Hosts: d.hosts, Query: q}, &resp)
		for i, rep := range resp.Replies {
			if rep.Error != "" || rep.Host != d.hosts[i] {
				t.Fatalf("%s: batch reply %d = host %v, error %q", q.Op, i, rep.Host, rep.Error)
			}
			batched = append(batched, canon(t, rep.Result))
		}
		return perHost, batched
	}

	// The oracle is the evaluator itself, run in-process over the same
	// population; every pairing, through both endpoints, must reproduce it.
	check := func(t *testing.T, answer func(*testing.T, daemon, query.Query) ([]string, []string)) {
		for _, d := range fleet(t) {
			for _, q := range matrixQueries(base) {
				perHost, batched := answer(t, d, q)
				for i, h := range d.hosts {
					local, _ := query.ExecuteContext(context.Background(), q, query.StoreView{S: seedStore(int(h), nrec)})
					want := canon(t, local)
					if perHost[i] != want {
						t.Errorf("%d-host daemon, %s at %v: /query differs from local evaluation\n got %s\nwant %s", len(d.hosts), q.Op, h, perHost[i], want)
					}
					if batched[i] != want {
						t.Errorf("%d-host daemon, %s at %v: /batchquery differs from local evaluation\n got %s\nwant %s", len(d.hosts), q.Op, h, batched[i], want)
					}
				}
			}
		}
	}
	t.Run("binary-client-wire-server", func(t *testing.T) { check(t, viaTransport) })
	t.Run("json-client-wire-server", func(t *testing.T) { check(t, viaCurl) })
}

// TestNegotiationHeaders checks the raw HTTP contract: the response
// Content-Type follows the Accept offer exactly.
func TestNegotiationHeaders(t *testing.T) {
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: seedStore(1, 10)}}).Handler())
	defer srv.Close()

	post := func(accept string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Query: query.Query{Op: query.OpRecords, Link: types.AnyLink}})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(wire.ContentType + ", application/json"); !wire.IsWire(resp.Header.Get("Content-Type")) {
		t.Fatalf("wire offer answered with %q", resp.Header.Get("Content-Type"))
	} else if _, res, err := wire.ReadQuery(resp.Body); err != nil || len(res.Records) != 10 {
		t.Fatalf("wire body: res=%v err=%v", res, err)
	}
	if resp := post(""); !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("no offer answered with %q", resp.Header.Get("Content-Type"))
	} else {
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || len(qr.Result.Records) != 10 {
			t.Fatalf("json body: %v err=%v", qr, err)
		}
	}
}

// TestBodyLimit413 exercises the MaxBytesReader fix: an oversized body
// answers 413 with an explicit message (not the old 400 "unexpected
// EOF"), and the cap is configurable per server.
func TestBodyLimit413(t *testing.T) {
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: tib.NewStore()}, MaxBodyBytes: 1024}).Handler())
	defer srv.Close()

	big := QueryRequest{Query: query.Query{Op: query.OpConformance, Avoid: make([]types.SwitchID, 4000)}}
	body, _ := json.Marshal(big)
	if len(body) <= 1024 {
		t.Fatalf("test body too small: %d", len(body))
	}
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "1024-byte limit") {
		t.Fatalf("413 message %q should name the limit", msg)
	}

	// A raised cap accepts the same body.
	srv2 := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: tib.NewStore()}, MaxBodyBytes: 1 << 20}).Handler())
	defer srv2.Close()
	resp2, err := http.Post(srv2.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status with raised cap = %d, want 200", resp2.StatusCode)
	}
}

// TestEncodeFailureWellFormed pins the buffered-encode fix: a value JSON
// cannot marshal yields a clean 500 error response, not a 200 with a
// half-written body and an error message glued on.
func TestEncodeFailureWellFormed(t *testing.T) {
	rec := httptest.NewRecorder()
	encode(rec, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "{") {
		t.Fatalf("error body contains partial JSON: %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response mislabelled as JSON (%q)", ct)
	}
}

// TestAlarmClientDropped covers the drop accounting: transport failures
// and non-2xx answers both count, and non-2xx surfaces as *StatusError.
func TestAlarmClientDropped(t *testing.T) {
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "controller on fire", http.StatusInternalServerError)
	}))
	defer boom.Close()

	ac := &AlarmClient{URL: boom.URL}
	err := ac.RaiseAlarmContext(context.Background(), types.Alarm{Reason: types.ReasonLoop})
	var se *StatusError
	if err == nil || !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want *StatusError 500", err)
	}
	if ac.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", ac.Dropped())
	}

	// Transport failure (nothing listening) counts too, via the
	// contextless path.
	dead := &AlarmClient{URL: "http://127.0.0.1:1", Timeout: 200 * time.Millisecond}
	dead.RaiseAlarm(types.Alarm{Reason: types.ReasonLoop})
	if dead.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", dead.Dropped())
	}

	// Successful delivery does not count.
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{}"))
	}))
	defer ok.Close()
	ac2 := &AlarmClient{URL: ok.URL}
	if err := ac2.RaiseAlarmContext(context.Background(), types.Alarm{}); err != nil {
		t.Fatal(err)
	}
	if ac2.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", ac2.Dropped())
	}
}

// TestPooledFanoutNoLeak hammers the pooled transport from many
// goroutines (run under -race in CI) and then checks that no goroutines
// outlive the storm once idle connections are dropped.
func TestPooledFanoutNoLeak(t *testing.T) {
	srv, hosts := multiDaemon(t, 40, 8, 30)
	urls := make(map[types.HostID]string)
	for _, h := range hosts {
		urls[h] = srv.URL
	}
	tr := &HTTPTransport{URLs: urls}
	before := runtime.NumGoroutine()

	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					replies, err := tr.QueryMany(context.Background(), hosts, q, 8)
					if err != nil {
						errs <- err
						return
					}
					for _, rep := range replies {
						if rep.Err != nil {
							errs <- rep.Err
							return
						}
					}
				} else {
					h := hosts[(w+i)%len(hosts)]
					if _, _, err := tr.Query(context.Background(), h, q); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	DefaultTransport.CloseIdleConnections()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryManyMetaOverWire makes sure per-host telemetry survives the
// binary batch path value-for-value against the JSON reply a curl-style
// client gets.
func TestQueryManyMetaOverWire(t *testing.T) {
	srv, hosts := multiDaemon(t, 70, 3, 40)
	urls := make(map[types.HostID]string)
	for _, h := range hosts {
		urls[h] = srv.URL
	}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.TimeRange{From: 0, To: 5 * types.Millisecond}}
	binary, err := (&HTTPTransport{URLs: urls}).QueryMany(context.Background(), hosts, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	var jsonR BatchQueryResponse
	postJSON(t, srv.URL+"/batchquery", nil, BatchQueryRequest{Hosts: hosts, Query: q}, &jsonR)
	for i := range binary {
		got, want := binary[i].Meta, jsonR.Replies[i]
		if got.RecordsScanned != want.RecordsScanned || got.SegmentsScanned != want.SegmentsScanned || got.SegmentsPruned != want.SegmentsPruned {
			t.Fatalf("host %v meta differs: wire %+v json %+v", hosts[i], got, want)
		}
		if got.RecordsScanned == 0 {
			t.Fatalf("host %v: telemetry lost", hosts[i])
		}
	}
}
