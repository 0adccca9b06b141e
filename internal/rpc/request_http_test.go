// Tests for the request side: the transport sends one encoding per
// request type and sends it once — binary frames for query, batch and
// install bodies, accepted by the daemons; a daemon that rejects a frame
// is a *StatusError after exactly one request, never retried as JSON and
// never remembered — while the servers still follow whatever encoding a
// request body arrives in.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// ctCounter wraps a handler and counts request bodies by Content-Type,
// so tests can assert which encoding actually crossed the wire.
type ctCounter struct {
	h  http.Handler
	mu sync.Mutex
	// wireReqs and jsonReqs count POST bodies by encoding.
	wireReqs, jsonReqs int
}

func (c *ctCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if wire.IsWire(r.Header.Get("Content-Type")) {
		c.wireReqs++
	} else {
		c.jsonReqs++
	}
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *ctCounter) counts() (wireReqs, jsonReqs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireReqs, c.jsonReqs
}

// rejectWire makes h answer code to every wire-encoded request body
// before it reaches a handler: 415 is a server that will not take
// frames, 400 one whose JSON decoder choked on them.
func rejectWire(h http.Handler, code int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wire.IsWire(r.Header.Get("Content-Type")) {
			http.Error(w, "bad request: invalid character 'P' looking for beginning of value", code)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestRequestSideFallbackMatrix pins that there is no request-side
// fallback. Against a daemon that takes frames every request body is a
// frame; against one that rejects them — 415 or 400, answered before any
// handler runs — each call is exactly one request and a *StatusError,
// on the first call and on the tenth alike (nothing is retried as JSON,
// nothing is remembered per daemon). The servers' half survives: a JSON
// request body that offers wire in Accept gets the same records back in
// a frame.
func TestRequestSideFallbackMatrix(t *testing.T) {
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	newDaemon := func(t *testing.T, reject int) (*ctCounter, string, *HTTPTransport, []types.HostID) {
		targets := make(map[types.HostID]Target)
		urls := make(map[types.HostID]string)
		var hosts []types.HostID
		for i := 0; i < 3; i++ {
			h := types.HostID(90 + i)
			targets[h] = SnapshotTarget{Store: seedStore(90+i, 40)}
			hosts = append(hosts, h)
		}
		var h http.Handler = (&MultiAgentServer{Targets: targets}).Handler()
		if reject != 0 {
			h = rejectWire(h, reject)
		}
		cc := &ctCounter{h: h}
		srv := httptest.NewServer(cc)
		t.Cleanup(srv.Close)
		for _, hh := range hosts {
			urls[hh] = srv.URL
		}
		return cc, srv.URL, &HTTPTransport{URLs: urls}, hosts
	}

	t.Run("wire-req-modern-daemon", func(t *testing.T) {
		cc, _, tr, hosts := newDaemon(t, 0)
		for round := 0; round < 2; round++ {
			res, meta, err := tr.Query(context.Background(), hosts[0], q)
			if err != nil {
				t.Fatal(err)
			}
			if meta.RecordsScanned != 40 || len(res.Records) != 40 {
				t.Fatalf("round %d: %d records, meta %+v", round, len(res.Records), meta)
			}
		}
		replies, err := tr.QueryMany(context.Background(), hosts, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range replies {
			if rep.Err != nil || len(rep.Result.Records) != 40 {
				t.Fatalf("batch host %v: %d records, err %v", rep.Host, len(rep.Result.Records), rep.Err)
			}
		}
		if w, j := cc.counts(); w != 3 || j != 0 {
			t.Fatalf("daemon saw %d wire / %d json request bodies, want 3 / 0", w, j)
		}
	})

	for name, code := range map[string]int{
		"wire-req-415-daemon":        http.StatusUnsupportedMediaType,
		"wire-req-legacy-400-daemon": http.StatusBadRequest,
	} {
		t.Run(name, func(t *testing.T) {
			cc, _, tr, hosts := newDaemon(t, code)
			wantStatus := func(call string, err error) {
				t.Helper()
				var se *StatusError
				if !errors.As(err, &se) || se.Code != code {
					t.Fatalf("%s: err = %v, want *StatusError %d", call, err, code)
				}
			}
			for call := 1; call <= 10; call++ {
				_, _, err := tr.Query(context.Background(), hosts[0], q)
				wantStatus("Query", err)
				if w, j := cc.counts(); w != call || j != 0 {
					t.Fatalf("after %d calls the daemon saw %d wire / %d json request bodies, want one wire request per call", call, w, j)
				}
			}
			replies, err := tr.QueryMany(context.Background(), hosts, q, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range replies {
				wantStatus("QueryMany slot", rep.Err)
			}
			if w, j := cc.counts(); w != 11 || j != 0 {
				t.Fatalf("the batch cost %d wire / %d json request bodies beyond the ten queries, want 1 / 0", w-10, j)
			}
		})
	}

	t.Run("json-body-client-modern-daemon", func(t *testing.T) {
		cc, url, tr, hosts := newDaemon(t, 0)
		want, _, err := tr.Query(context.Background(), hosts[0], q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(QueryRequest{Host: &hosts[0], Query: q})
		req, _ := http.NewRequest(http.MethodPost, url+"/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", wire.ContentType)
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
			t.Fatalf("a JSON request offering wire was answered %q", ct)
		}
		_, got, err := wire.ReadQuery(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if canon(t, *got) != canon(t, want) {
			t.Fatal("JSON-request and wire-request paths disagree on the same query")
		}
		if w, j := cc.counts(); w != 1 || j != 1 {
			t.Fatalf("daemon saw %d wire / %d json request bodies, want 1 / 1", w, j)
		}
	})
}

// installCounter is a Target that counts Install invocations.
type installCounter struct {
	SnapshotTarget
	mu       sync.Mutex
	installs int
}

func (t *installCounter) Install(q query.Query, period types.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installs++
	return t.installs
}

func (t *installCounter) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.installs
}

// TestInstallFallbackNoDoubleExecute: an install has no fallback either.
// Installs are JSON, as every control-plane request is. A daemon that
// rejects the body does so in decode, before the handler touches the
// target, and the transport does not try again in another encoding — so
// the caller gets the *StatusError, the daemon saw one request, and
// nothing was installed. Against a daemon that takes the body the install
// runs exactly once; a wire frame posted to /install is answered 415 and
// installs nothing.
func TestInstallFallbackNoDoubleExecute(t *testing.T) {
	install := func(t *testing.T, reject int) (*installCounter, *ctCounter, int, error) {
		target := &installCounter{SnapshotTarget: SnapshotTarget{Store: tib.NewStore()}}
		var h http.Handler = (&AgentServer{T: target}).Handler()
		if reject != 0 {
			h = rejectJSON(h, reject)
		}
		cc := &ctCounter{h: h}
		srv := httptest.NewServer(cc)
		defer srv.Close()
		tr := &HTTPTransport{URLs: map[types.HostID]string{5: srv.URL}}
		id, err := tr.Install(context.Background(), 5, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
		return target, cc, id, err
	}
	for name, code := range map[string]int{"415": http.StatusUnsupportedMediaType, "legacy-400": http.StatusBadRequest} {
		t.Run(name, func(t *testing.T) {
			target, cc, _, err := install(t, code)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != code {
				t.Fatalf("install err = %v, want *StatusError %d", err, code)
			}
			if w, j := cc.counts(); w != 0 || j != 1 {
				t.Fatalf("daemon saw %d wire / %d json request bodies, want exactly one json request", w, j)
			}
			if target.count() != 0 {
				t.Fatalf("a rejected install ran %d times", target.count())
			}
		})
	}
	target, _, id, err := install(t, 0)
	if err != nil || id != 1 || target.count() != 1 {
		t.Fatalf("accepted install ran %d times (id %d, err %v), want exactly once", target.count(), id, err)
	}

	srv := httptest.NewServer((&AgentServer{T: target}).Handler())
	defer srv.Close()
	var frame bytes.Buffer
	if err := wire.WriteQueryRequest(&frame, nil, &query.Query{Op: query.OpPoorTCP, Threshold: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/install", wire.ContentType, &frame)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || target.count() != 1 {
		t.Fatalf("a wire-encoded /install answered %d and left %d installs, want 415 and 1", resp.StatusCode, target.count())
	}
}

// rejectJSON is rejectWire's mirror: a daemon that takes no JSON body.
func rejectJSON(h http.Handler, code int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !wire.IsWire(r.Header.Get("Content-Type")) {
			http.Error(w, "unsupported media type", code)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestWireRequestRoundTrip pins the binary request path end to end: the
// daemon receives a wire-encoded body and decodes every field the JSON
// spelling of the same request carries, so a time-bounded query answers
// the same through both.
func TestWireRequestRoundTrip(t *testing.T) {
	targets := map[types.HostID]Target{7: SnapshotTarget{Store: seedStore(7, 25)}}
	cc := &ctCounter{h: (&MultiAgentServer{Targets: targets}).Handler()}
	srv := httptest.NewServer(cc)
	defer srv.Close()

	tr := &HTTPTransport{URLs: map[types.HostID]string{7: srv.URL}}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.TimeRange{From: 0, To: 10 * types.Millisecond}}
	res, _, err := tr.Query(context.Background(), 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Records) == 25 {
		t.Fatalf("%d records through the wire request path, want the time-bounded subset", len(res.Records))
	}
	host := types.HostID(7)
	var jres QueryResponse
	postJSON(t, srv.URL+"/query", nil, QueryRequest{Host: &host, Query: q}, &jres)
	if canon(t, res) != canon(t, jres.Result) {
		t.Fatal("wire-request and JSON-request paths disagree on the same time-bounded query")
	}
	if w, j := cc.counts(); w != 1 || j != 1 {
		t.Fatalf("daemon saw %d wire / %d json request bodies, want 1 / 1", w, j)
	}
}

// TestUnexpectedReplyEncoding: a reply in an encoding the call does not
// decode is named as such and never fed to the other decoder — a JSON
// body answering /query or /batchquery, a frame answering /install.
func TestUnexpectedReplyEncoding(t *testing.T) {
	jsonSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		encode(w, QueryResponse{})
	}))
	defer jsonSrv.Close()
	wireSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", wire.ContentType)
		wire.WriteQuery(w, wire.Meta{}, &query.Result{}, false)
	}))
	defer wireSrv.Close()

	want := func(call string, err error, ct string) {
		t.Helper()
		var uct *UnexpectedContentTypeError
		if !errors.As(err, &uct) || uct.ContentType != ct {
			t.Errorf("%s: err = %v, want *UnexpectedContentTypeError naming %q", call, err, ct)
		}
	}
	tr := &HTTPTransport{URLs: map[types.HostID]string{1: jsonSrv.URL, 2: jsonSrv.URL, 3: wireSrv.URL}}
	_, _, err := tr.Query(context.Background(), 1, query.Query{Op: query.OpTopK, K: 1})
	want("Query", err, "application/json")
	replies, err := tr.QueryMany(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpTopK, K: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range replies {
		want("QueryMany slot", rep.Err, "application/json")
	}
	_, err = tr.Install(context.Background(), 3, query.Query{Op: query.OpPoorTCP}, types.Second)
	want("Install", err, wire.ContentType)
}

// TestBatchReplyMisaligned: reply j must carry host j. A daemon that
// answers a batch with two sections swapped is rejected as a group —
// every slot errs — instead of one host's records being merged under
// the other's name.
func TestBatchReplyMisaligned(t *testing.T) {
	srv, hosts := multiDaemon(t, 20, 3, 10)
	swapper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hs, q, parallel, err := wire.ReadBatchRequest(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		var buf bytes.Buffer
		if err := wire.WriteBatchRequest(&buf, hs, &q, parallel); err != nil {
			t.Error(err)
			return
		}
		req, _ := http.NewRequest(http.MethodPost, srv.URL+r.URL.Path, &buf)
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		replies, err := wire.ReadBatch(resp.Body)
		if err != nil || len(replies) != 3 {
			t.Errorf("upstream batch: %d replies, err %v", len(replies), err)
			return
		}
		replies[0], replies[2] = replies[2], replies[0]
		w.Header().Set("Content-Type", wire.ContentType)
		wire.WriteBatch(w, replies, false)
	}))
	defer swapper.Close()

	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	urls := make(map[types.HostID]string)
	for _, h := range hosts {
		urls[h] = swapper.URL
	}
	replies, err := (&HTTPTransport{URLs: urls}).QueryMany(context.Background(), hosts, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "/batchquery reply 0 is for host " + hosts[2].String() + ", asked for " + hosts[0].String()
	for i, rep := range replies {
		if rep.Err == nil || !strings.Contains(rep.Err.Error(), want) {
			t.Errorf("slot %d: err = %v, want one naming %q", i, rep.Err, want)
		}
		if rep.Host != hosts[i] || len(rep.Result.Records) != 0 {
			t.Errorf("slot %d carries host %v with %d records, want the requested host and no data", i, rep.Host, len(rep.Result.Records))
		}
	}
}

// TestStreamClientDisconnectNoLeak starts a streamed records response,
// abandons it mid-frame, and checks the daemon sheds the request — no
// goroutine keeps scanning for a client that hung up (run under -race in
// CI alongside the other leak tests).
func TestStreamClientDisconnectNoLeak(t *testing.T) {
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: seedStore(3, 30_000)}}).Handler())
	defer srv.Close()
	before := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(QueryRequest{Query: query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", wire.ContentType+", application/json")
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if !wire.IsWire(resp.Header.Get("Content-Type")) {
			t.Fatalf("expected a streamed wire reply, got %q", resp.Header.Get("Content-Type"))
		}
		// Read one chunk's worth, then hang up mid-frame.
		if _, err := io.ReadFull(resp.Body, make([]byte, 8<<10)); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	DefaultTransport.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after mid-stream disconnects: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
