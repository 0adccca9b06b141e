package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// get fetches a URL and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestHealthzDefault: every server answers /healthz even with no
// observability wired — readiness probing must not depend on it.
func TestHealthzDefault(t *testing.T) {
	agentSrv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: seedStore(1, 10)}}).Handler())
	defer agentSrv.Close()
	code, body := get(t, agentSrv.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("agent /healthz = %d %q", code, body)
	}
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Hosts != 1 || h.Records != 10 {
		t.Fatalf("agent /healthz body %q (err %v)", body, err)
	}

	multiSrv := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		1: SnapshotTarget{Store: seedStore(1, 10)},
		2: SnapshotTarget{Store: seedStore(2, 5)},
	}}).Handler())
	defer multiSrv.Close()
	code, body = get(t, multiSrv.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusOK || h.Hosts != 2 || h.Records != 15 {
		t.Fatalf("multi /healthz = %d %q (err %v)", code, body, err)
	}
}

// TestHealthzOverride: a non-ok Health callback turns /healthz into a
// 503 so load balancers and wait_ready loops hold traffic.
func TestHealthzOverride(t *testing.T) {
	srv := httptest.NewServer((&AgentServer{
		T:   SnapshotTarget{Store: seedStore(1, 10)},
		Obs: &ServerObs{Health: func() HealthStatus { return HealthStatus{Status: "loading", Snapshot: "restoring"} }},
	}).Handler())
	defer srv.Close()
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "loading") {
		t.Fatalf("/healthz = %d %q, want 503 loading", code, body)
	}
}

// TestRPCMetricsMiddleware: the wrap middleware counts requests by
// encoding, observes latency and response bytes, and classifies errors
// — including body-cap 413s — all visible on a /metrics scrape.
func TestRPCMetricsMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer((&AgentServer{
		T:            SnapshotTarget{Store: seedStore(1, 50)},
		MaxBodyBytes: 256,
		Obs:          &ServerObs{Registry: reg},
	}).Handler())
	defer srv.Close()

	// One JSON query (no Accept: wire offer).
	body, _ := json.Marshal(QueryRequest{Query: query.Query{Op: query.OpTopK, K: 3}})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query = %d", resp.StatusCode)
	}

	// One body-cap rejection: valid JSON that reads past the cap (an
	// invalid body would 400 at the first byte instead).
	huge := []byte(`{"pad":"` + strings.Repeat("A", 4096) + `"}`)
	resp, err = http.Post(srv.URL+"/query", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /query = %d, want 413", resp.StatusCode)
	}

	_, scrape := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`pathdump_rpc_requests_total{op="query",enc="json"} 2`,
		`pathdump_rpc_request_seconds_count{op="query"} 2`,
		`pathdump_rpc_response_bytes_count{op="query"} 2`,
		`pathdump_rpc_errors_total{op="query",class="4xx"} 1`,
		`pathdump_rpc_body_cap_rejections_total{op="query"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

// TestSlowLogEndpoint: a wired slow-query log is served at /slowlog,
// newest first.
func TestSlowLogEndpoint(t *testing.T) {
	sl := obs.NewSlowLog(4)
	sl.Add(obs.SlowQuery{Trace: "abc", Query: "topk", Dur: time.Second, At: time.Unix(1, 0)})
	srv := httptest.NewServer((&AgentServer{
		T:   SnapshotTarget{Store: seedStore(1, 10)},
		Obs: &ServerObs{SlowLog: sl},
	}).Handler())
	defer srv.Close()
	code, body := get(t, srv.URL+"/slowlog")
	if code != http.StatusOK || !strings.Contains(body, `"trace":"abc"`) {
		t.Fatalf("/slowlog = %d %q", code, body)
	}
}

// TestPprofOptIn: /debug/pprof/ is absent by default and mounted when
// opted in.
func TestPprofOptIn(t *testing.T) {
	off := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: seedStore(1, 10)}}).Handler())
	defer off.Close()
	if code, _ := get(t, off.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof without opt-in = %d, want 404", code)
	}
	on := httptest.NewServer((&AgentServer{
		T:   SnapshotTarget{Store: seedStore(1, 10)},
		Obs: &ServerObs{EnablePprof: true},
	}).Handler())
	defer on.Close()
	if code, body := get(t, on.URL+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof with opt-in = %d", code)
	}
}

// TestTraceSpanRoundTrip: a traced request gets the agent's scan span
// back in whichever slot its reply encoding has — the SpanHeader for the
// transport's buffered wire replies (landing in QueryMeta.Span), the
// body for a JSON reply to a curl-style request. Untraced requests carry
// no span.
func TestTraceSpanRoundTrip(t *testing.T) {
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: seedStore(1, 50)}}).Handler())
	defer srv.Close()
	tr := &HTTPTransport{URLs: map[types.HostID]string{7: srv.URL}}
	q := query.Query{Op: query.OpTopK, K: 3}

	for _, tc := range []struct {
		name string
		// span runs q, traced with tid when it is non-empty, and returns
		// the scan span the reply carried.
		span func(t *testing.T, tid string) *obs.Span
	}{
		{"wire", func(t *testing.T, tid string) *obs.Span {
			_, meta, err := tr.Query(obs.ContextWithTrace(context.Background(), tid), 7, q)
			if err != nil {
				t.Fatal(err)
			}
			return meta.Span
		}},
		{"json", func(t *testing.T, tid string) *obs.Span {
			var resp QueryResponse
			hdr := http.Header{}
			if tid != "" {
				hdr.Set(TraceHeader, tid)
			}
			postJSON(t, srv.URL+"/query", hdr, QueryRequest{Query: q}, &resp)
			return resp.Span
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tid := obs.NewTraceID()
			sp := tc.span(t, tid)
			if sp == nil {
				t.Fatal("traced query returned no span")
			}
			if sp.Name != "scan" || sp.Attr("trace") != tid {
				t.Fatalf("span %s trace=%s, want scan/%s", sp.Name, sp.Attr("trace"), tid)
			}
			if sp.Attr("records") == "" || sp.Attr("segments_scanned") == "" {
				t.Fatalf("span missing scan telemetry: %s", sp.Render())
			}
			if sp := tc.span(t, ""); sp != nil {
				t.Fatalf("untraced query carried a span: %s", sp.Render())
			}
		})
	}
}
