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

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/controller"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
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

// TestTraceSpanRoundTrip: every reply shape the controller meets — a
// buffered wire /query, a streamed records /query, a /batchquery section
// and the in-process Local transport — gives it one scan span per host,
// built from the host's measured telemetry: the same attributes,
// cold_loads included on a store whose cold tier the scan thaws, and the
// measured scan time as its duration. Curl's JSON keeps its three
// counters with no span beside them.
func TestTraceSpanRoundTrip(t *testing.T) {
	topo, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	one := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: coldStore(t, 7, 400)}}).Handler())
	defer one.Close()
	two := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		8: SnapshotTarget{Store: coldStore(t, 8, 400)},
		9: SnapshotTarget{Store: coldStore(t, 9, 400)},
	}}).Handler())
	defer two.Close()
	tr := &HTTPTransport{URLs: map[types.HostID]string{7: one.URL, 8: two.URL, 9: two.URL}}
	defer tr.CloseIdleConnections()
	scheme, err := cherrypick.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, scheme, netsim.Config{Seed: 1})
	local := agent.New(sim, topo.Hosts()[3], nil, nil, agent.Config{})
	local.Store = coldStore(t, 3, 400)

	topk := query.Query{Op: query.OpTopK, K: 3}
	for _, tc := range []struct {
		name  string
		t     controller.Transport
		hosts []types.HostID
		q     query.Query
	}{
		{"wire", tr, []types.HostID{7}, topk},
		{"streamed", tr, []types.HostID{7}, query.Query{Op: query.OpRecords, Link: types.AnyLink}},
		{"batch", tr, []types.HostID{8, 9}, topk},
		{"local", controller.Local{Agents: map[types.HostID]*agent.Agent{3: local}}, []types.HostID{3}, topk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stats, err := controller.New(topo, tc.t, nil).ExecuteContext(context.Background(), tc.hosts, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			var scans []*obs.Span
			walkSpans(stats.Trace, func(s *obs.Span) {
				if s.Name == "scan" {
					scans = append(scans, s)
				}
			})
			if len(scans) != len(tc.hosts) {
				t.Fatalf("%d scan spans for %d hosts:\n%s", len(scans), len(tc.hosts), stats.Trace.Render())
			}
			for _, sp := range scans {
				if got, want := spanAttrKeys(t, sp), "records segments_scanned segments_pruned cold_loads"; got != want {
					t.Errorf("scan span attributes %q, want %q:\n%s", got, want, sp.Render())
				}
				if sp.Dur <= 0 {
					t.Errorf("scan span lasts %v, want the measured scan time:\n%s", sp.Dur, sp.Render())
				}
			}
		})
	}

	t.Run("json", func(t *testing.T) {
		var resp map[string]json.RawMessage
		q := query.Query{Op: query.OpTopK, K: 3, Range: types.TimeRange{From: 300 * types.Millisecond, To: types.Second}}
		postJSON(t, one.URL+"/query", nil, QueryRequest{Query: q}, &resp)
		for _, key := range []string{"result", "records_scanned", "segments_scanned", "segments_pruned"} {
			if _, ok := resp[key]; !ok {
				t.Errorf("JSON reply has no %q: %v", key, resp)
			}
		}
		if _, ok := resp["span"]; ok || len(resp) != 4 {
			t.Errorf("JSON reply carries more than its result and three counters: %v", resp)
		}
	})
}

// coldStore is seedStore's population on a store with a cold tier, its
// older half spilled to disk: a full scan thaws it.
func coldStore(t *testing.T, host, nrec int) *tib.Store {
	t.Helper()
	st := tib.NewStoreConfig(tib.Config{SegmentSpan: 20 * types.Millisecond, ColdDir: t.TempDir()})
	seeded := seedStore(host, nrec)
	seeded.Scan(nil, types.AnyLink, types.AllTime, func(rec *types.Record) { st.Add(*rec) })
	if segs, _, err := st.SpillBefore(types.Time(nrec/2) * types.Millisecond); err != nil || segs == 0 {
		t.Fatalf("spilled %d segments: %v", segs, err)
	}
	return st
}

// walkSpans visits every span of a trace, derived ones included.
func walkSpans(s *obs.Span, visit func(*obs.Span)) {
	visit(s)
	for _, c := range s.Children {
		walkSpans(c, visit)
	}
}

// spanAttrKeys lists a span's attribute keys in the order they were set.
func spanAttrKeys(t *testing.T, s *obs.Span) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var j struct{ Attrs []obs.Attr }
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(j.Attrs))
	for i, a := range j.Attrs {
		keys[i] = a.Key
	}
	return strings.Join(keys, " ")
}
