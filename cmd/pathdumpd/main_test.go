package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdump"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// liveRecords is how many records each test agent holds: more than one
// wire chunk's worth, so a streamed reply cannot fit in one.
const liveRecords = wire.DefaultChunkRecords + 1000

// spyTarget records which of the two query paths the server took.
type spyTarget struct {
	rpc.Target
	executed, streamed atomic.Int32
}

func (s *spyTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	s.executed.Add(1)
	return s.Target.ExecuteContext(ctx, q)
}

func (s *spyTarget) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	s.streamed.Add(1)
	return s.Target.StreamRecords(ctx, q, fn)
}

// daemon serves the given hosts of a 4-ary fat tree the way main does —
// live agents behind lockedTarget, through newHandler — with a spy
// between each agent and the daemon's own wrappers; slowHost (< 0 =
// none) stalls for a minute. It returns the server, the spies, and the
// records seeded into every agent's TIB.
func daemon(t *testing.T, slowHost int, hosts ...types.HostID) (*httptest.Server, map[types.HostID]*spyTarget, []types.Record) {
	t.Helper()
	c, err := pathdump.NewFatTree(4, pathdump.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]types.Record, liveRecords)
	for i := range want {
		want[i] = types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i % 97), DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: types.ProtoTCP},
			Path:  types.Path{0, types.SwitchID(8 + i%2), 16},
			STime: types.Time(i), ETime: types.Time(i + 5),
			Bytes: uint64(100 + i), Pkts: 1,
		}
	}
	var simMu sync.Mutex
	spies := make(map[types.HostID]*spyTarget)
	targets := make(map[types.HostID]rpc.Target)
	for _, h := range hosts {
		for _, rec := range want {
			c.Agents[h].Store.Add(rec)
		}
		spies[h] = &spyTarget{Target: c.Agents[h]}
		targets[h] = lockedTarget{Target: spies[h], mu: &simMu}
	}
	srv := httptest.NewServer(newHandler(&rpc.MultiAgentServer{Targets: targets}, slowHost, time.Minute, false))
	t.Cleanup(srv.Close)
	return srv, spies, want
}

// post sends one request body and returns the response.
func post(t *testing.T, ctx context.Context, url, contentType, accept string, body []byte) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return rpc.DefaultClient.Do(req)
}

var allRecords = query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}

func recordsFrame(t *testing.T, host types.HostID) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteQueryRequest(&buf, &host, &allRecords); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveDaemonStreamsRecords is the regression test for the daemon
// that never streamed: a wire records query against a live agent behind
// the daemon's wrappers must reach Target.StreamRecords — not the
// materialise-then-encode path — and deliver the agent's records, in
// order, in more than one chunk.
func TestLiveDaemonStreamsRecords(t *testing.T) {
	srv, spies, want := daemon(t, -1, 0)
	resp, err := post(t, context.Background(), srv.URL+"/query", wire.ContentType, wire.ContentType, recordsFrame(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !wire.IsWire(resp.Header.Get("Content-Type")) {
		t.Fatalf("/query = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var got []types.Record
	chunks := 0
	meta, _, err := wire.ReadQueryChunks(resp.Body, func(recs []types.Record) {
		chunks++
		got = append(got, recs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Errorf("%d records arrived in %d chunk(s), want more than one", len(got), chunks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed reply differs from the agent's records (%d got, %d want)", len(got), len(want))
	}
	if meta.RecordsScanned != liveRecords || meta.SegmentsScanned == 0 {
		t.Errorf("meta = %+v, want %d records scanned over at least one segment", meta, liveRecords)
	}
	if s, e := spies[0].streamed.Load(), spies[0].executed.Load(); s != 1 || e != 0 {
		t.Errorf("the daemon streamed %d times and materialised %d times, want 1 and 0", s, e)
	}
}

// TestSingleHostDaemonIsAMultiHostDaemonOfOne: -host N serves the same
// endpoints as -hosts — /batchquery included — resolves a request that
// names no host (the documented curl) to its only agent, and refuses a
// request for a host it does not serve instead of answering it with its
// own agent's data.
func TestSingleHostDaemonIsAMultiHostDaemonOfOne(t *testing.T) {
	one, _, _ := daemon(t, -1, 0)
	two, _, _ := daemon(t, -1, 0, 1)
	topk := query.Query{Op: query.OpTopK, K: 3}
	jsonPost := func(url string, in interface{}) (int, []byte) {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := post(t, context.Background(), url, "application/json", "", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	code, out := jsonPost(one.URL+"/batchquery", rpc.BatchQueryRequest{Hosts: []types.HostID{0}, Query: topk})
	var batch rpc.BatchQueryResponse
	if err := json.Unmarshal(out, &batch); code != http.StatusOK || err != nil || len(batch.Replies) != 1 || len(batch.Replies[0].Result.Top) != 3 {
		t.Errorf("single-host /batchquery = %d %s (err %v)", code, out, err)
	}

	code, out = jsonPost(one.URL+"/query", rpc.QueryRequest{Query: topk})
	var resp rpc.QueryResponse
	if err := json.Unmarshal(out, &resp); code != http.StatusOK || err != nil || len(resp.Result.Top) != 3 {
		t.Errorf("host-less /query on a daemon of one = %d %s (err %v)", code, out, err)
	}
	if code, out := jsonPost(two.URL+"/query", rpc.QueryRequest{Query: topk}); code != http.StatusNotFound {
		t.Errorf("host-less /query on a daemon of two = %d %s, want 404", code, out)
	}
	other := types.HostID(5)
	if code, out := jsonPost(one.URL+"/query", rpc.QueryRequest{Host: &other, Query: topk}); code != http.StatusNotFound || !bytes.Contains(out, []byte("not served here")) {
		t.Errorf("/query for host 5 on a daemon serving host 0 = %d %s, want 404 not served here", code, out)
	}
}

// TestSlowHostStallsBothQueryPaths: -slow-host must stall the streamed
// path as well as the materialised one, and either stall must end when
// the caller gives up.
func TestSlowHostStallsBothQueryPaths(t *testing.T) {
	srv, spies, _ := daemon(t, 0, 0)
	host := types.HostID(0)
	topk, _ := json.Marshal(rpc.QueryRequest{Host: &host, Query: query.Query{Op: query.OpTopK, K: 3}})
	for _, tc := range []struct {
		name, contentType, accept string
		body                      []byte
	}{
		{"streamed records", wire.ContentType, wire.ContentType, recordsFrame(t, 0)},
		{"materialised topk", "application/json", "", topk},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		resp, err := post(t, ctx, srv.URL+"/query", tc.contentType, tc.accept, tc.body)
		cancel()
		if err == nil {
			resp.Body.Close()
			t.Errorf("%s: the injected-slow host answered (%d) inside the stall", tc.name, resp.StatusCode)
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want the caller's deadline", tc.name, err)
		}
	}
	// Closing the server waits for its handlers: it returns promptly only
	// if both stalls ended with their callers.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled handlers outlived their cancelled requests")
	}
	if s, e := spies[0].streamed.Load(), spies[0].executed.Load(); s != 0 || e != 0 {
		t.Errorf("a cancelled stall still reached the agent (%d streamed, %d executed)", s, e)
	}
}
