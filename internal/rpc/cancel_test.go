package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// slowTarget is a target whose query evaluation takes a real delay and
// honours cancellation, counting how many executions started — the
// observable for "the server-side fan-out stopped". Everything else is
// the embedded target's.
type slowTarget struct {
	Target
	delay    time.Duration
	executed atomic.Int32
}

func newSlowTarget(delay time.Duration) *slowTarget {
	return &slowTarget{Target: SnapshotTarget{Store: tib.NewStore()}, delay: delay}
}

func (t *slowTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	t.executed.Add(1)
	timer := time.NewTimer(t.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return query.Result{}, ctx.Err()
	}
	return query.Result{Op: q.Op}, nil
}

// TestBatchQueryClientDisconnect: a client that hangs up mid-/batchquery
// must stop the daemon's server-side fan-out — hosts not yet started are
// never executed, and the in-flight one aborts its scan.
func TestBatchQueryClientDisconnect(t *testing.T) {
	const (
		hosts = 8
		delay = 40 * time.Millisecond
	)
	targets := make(map[types.HostID]Target, hosts)
	slow := make([]*slowTarget, hosts)
	ids := make([]types.HostID, hosts)
	for i := range slow {
		slow[i] = newSlowTarget(delay)
		targets[types.HostID(i)] = slow[i]
		ids[i] = types.HostID(i)
	}
	// Parallelism 1 serialises the fan-out: a full batch would take
	// hosts × delay = 320 ms.
	srv := httptest.NewServer((&MultiAgentServer{Targets: targets, Parallelism: 1}).Handler())
	defer srv.Close()

	body, err := json.Marshal(BatchQueryRequest{Hosts: ids, Query: query.Query{Op: query.OpTopK, K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/batchquery", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("batch query succeeded despite client disconnect")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("disconnected request held the client %v", elapsed)
	}

	// Give the server a moment to observe the disconnect, then verify the
	// fan-out stopped: with 1-at-a-time execution and a ~60 ms lifetime,
	// nowhere near all 8 hosts may have started, and — crucially — the
	// count must not keep growing after the client is gone.
	time.Sleep(100 * time.Millisecond)
	count := func() (n int32) {
		for _, s := range slow {
			n += s.executed.Load()
		}
		return n
	}
	afterDisconnect := count()
	if afterDisconnect >= hosts {
		t.Fatalf("all %d hosts executed despite disconnect", hosts)
	}
	time.Sleep(150 * time.Millisecond)
	if final := count(); final != afterDisconnect {
		t.Errorf("server-side fan-out kept running after disconnect: %d -> %d executions",
			afterDisconnect, final)
	}
}

// TestControllerTimeoutOverHTTP drives the whole stack: controller →
// HTTPTransport (batched) → MultiAgentServer → slow agents, cancelled by
// the controller's deadline. The -timeout flag of pathdumpctl is exactly
// this path.
func TestControllerTimeoutOverHTTP(t *testing.T) {
	const (
		hosts = 8
		delay = 100 * time.Millisecond
	)
	targets := make(map[types.HostID]Target, hosts)
	urls := make(map[types.HostID]string, hosts)
	hostIDs := make([]types.HostID, hosts)
	for i := 0; i < hosts; i++ {
		targets[types.HostID(i)] = newSlowTarget(delay)
		hostIDs[i] = types.HostID(i)
	}
	srv := httptest.NewServer((&MultiAgentServer{Targets: targets, Parallelism: 1}).Handler())
	defer srv.Close()
	for i := 0; i < hosts; i++ {
		urls[types.HostID(i)] = srv.URL
	}

	topo, _ := topology.FatTree(4)
	ctrl := controller.New(topo, &HTTPTransport{URLs: urls}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, stats, err := ctrl.ExecuteContext(ctx, hostIDs, query.Query{Op: query.OpTopK, K: 5})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("deadline-bounded HTTP query took %v (full batch would be %v)", elapsed, hosts*delay)
	}
	if stats.Hosts+stats.Skipped != hosts {
		t.Errorf("answered %d + skipped %d != %d", stats.Hosts, stats.Skipped, hosts)
	}
}

// TestAgentServerQueryTimeout: a single-agent /query whose evaluation
// outlives the per-request deadline (http.TimeoutHandler, pathdumpd's
// -timeout flag) answers 503 and aborts the evaluation.
func TestAgentServerQueryTimeout(t *testing.T) {
	slow := newSlowTarget(300 * time.Millisecond)
	h := http.TimeoutHandler((&AgentServer{T: slow}).Handler(), 50*time.Millisecond, "deadline exceeded")
	srv := httptest.NewServer(h)
	defer srv.Close()

	body, _ := json.Marshal(QueryRequest{Query: query.Query{Op: query.OpTopK, K: 5}})
	start := time.Now()
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from the timeout handler", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("timed-out request held the client %v", elapsed)
	}
}
