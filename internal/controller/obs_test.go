package controller

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// TestExecutionTrace: every execution returns a span tree rooted at
// "query" with per-host rpc spans, each over a scan span that lasts the
// host's measured scan time, and an interior merge span.
func TestExecutionTrace(t *testing.T) {
	r := newRig(t, 4, netsim.Config{})
	r.seedTraffic(40)
	hosts := r.hosts[:4]
	_, stats, err := r.ctrl.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpTopK, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := stats.Trace
	if root == nil {
		t.Fatal("ExecStats.Trace is nil; every execution must be traced")
	}
	if root.Name != "query" || root.Attr("op") != "topk" {
		t.Fatalf("root span = %s op=%s, want query/topk", root.Name, root.Attr("op"))
	}
	if tr := root.Attr("trace"); len(tr) != 16 {
		t.Fatalf("root trace attr %q: want a 16-hex trace ID", tr)
	}
	out := root.Render()
	for _, want := range []string{"query trace=", "op=topk hosts=4", "rpc host=", "scan records=", "merge children=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace render missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "rpc host="); got != 4 {
		t.Errorf("rpc spans = %d, want 4:\n%s", got, out)
	}
}

// TestTreeExecutionTrace: interior aggregation nodes appear as "node"
// spans so the tree shape survives into the trace.
func TestTreeExecutionTrace(t *testing.T) {
	r := newRig(t, 4, netsim.Config{})
	r.seedTraffic(40)
	_, stats, err := r.ctrl.ExecuteTreeContext(context.Background(), r.hosts[:8], query.Query{Op: query.OpTopK, K: 3}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	out := stats.Trace.Render()
	if got := strings.Count(out, "node host="); got != 2 {
		t.Fatalf("interior node spans = %d, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "merge children=") {
		t.Fatalf("interior merges missing:\n%s", out)
	}
}

// TestControllerMetricsAndSlowLog: RegisterMetrics exposes the
// controller plane on a scrape, and a threshold of one nanosecond
// lands every execution in the slow-query log with its span tree.
func TestControllerMetricsAndSlowLog(t *testing.T) {
	r := newRig(t, 4, netsim.Config{})
	r.seedTraffic(40)
	reg := obs.NewRegistry()
	r.ctrl.RegisterMetrics(reg)
	r.ctrl.SlowQueryThreshold = time.Nanosecond
	hosts := r.hosts[:4]
	if _, _, err := r.ctrl.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpTopK, K: 3}); err != nil {
		t.Fatal(err)
	}
	scrape := reg.Expose()
	for _, want := range []string{
		"pathdump_controller_queries_total 1",
		"pathdump_controller_hosts_queried_total 4",
		"pathdump_controller_query_seconds_count 1",
		"pathdump_controller_inflight_requests 0",
		"pathdump_controller_slow_queries 1",
		"pathdump_alarms_received",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
	slow := r.ctrl.SlowQueries()
	if len(slow) != 1 {
		t.Fatalf("slow log entries = %d, want 1", len(slow))
	}
	e := slow[0]
	if e.Span == nil || e.Trace == "" || e.Dur <= 0 || !strings.Contains(e.Query, "topk") {
		t.Fatalf("slow entry incomplete: %+v", e)
	}
	if e.Trace != e.Span.Attr("trace") {
		t.Fatalf("slow entry trace %q does not match span attr %q", e.Trace, e.Span.Attr("trace"))
	}
}

// walkSpans reads every field of every span in the tree without taking
// the spans' locks — what a caller holding a finished execution's
// ExecStats.Trace is entitled to do (marshal it, diff it, keep it).
func walkSpans(s *obs.Span, visit func(*obs.Span)) {
	visit(s)
	for _, c := range s.Children {
		walkSpans(c, visit)
	}
}

// TestBatchedExecutionTraceIsComplete is the regression test for spans
// finished after the execution had returned: runBatch used to signal its
// children done before its deferred batch-span Finish ran (and interior
// nodes likewise), so the caller could be reading the returned tree
// while a controller goroutine was still writing Dur into it. Under
// -race the walk below reports that write; without -race it still
// demands that every span of a returned tree is finished.
func TestBatchedExecutionTraceIsComplete(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(32)
	q := query.Query{Op: query.OpTopK, K: 32}
	for _, fanouts := range [][]int{nil, {4, 2}} {
		ctrl := New(topo, &batchTransport{slowTransport: slowTransport{delay: 100 * time.Microsecond}}, nil)
		for round := 0; round < 20; round++ {
			var stats ExecStats
			var err error
			if fanouts == nil {
				_, stats, err = ctrl.ExecuteContext(context.Background(), hosts, q)
			} else {
				_, stats, err = ctrl.ExecuteTreeContext(context.Background(), hosts, q, fanouts)
			}
			if err != nil {
				t.Fatal(err)
			}
			batches := 0
			walkSpans(stats.Trace, func(s *obs.Span) {
				if s.Name == "batch" {
					batches++
				}
				// The spans that wait on a transport round cannot have
				// lasted zero time; the others are not worth a flaky test
				// on a coarse clock — a node span among them, now that
				// the round is over before the fold opens it.
				if s.Dur == 0 && (s.Name == "query" || s.Name == "batch") {
					t.Fatalf("fanouts %v: span %q of a returned trace is unfinished", fanouts, s.Name)
				}
			})
			if batches == 0 {
				t.Fatalf("fanouts %v: no batch span in the trace — the batched path did not run", fanouts)
			}
		}
	}
}

// spanBatchTransport answers a batched round whose even hosts measured
// cold loads and a scan time, as an HTTP daemon's replies carry them, and
// whose odd hosts measured neither; host 3 fails.
type spanBatchTransport struct{ goldenTransport }

func (spanBatchTransport) QueryMany(_ context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := make([]BatchReply, len(hosts))
	for i, h := range hosts {
		res, meta := goldenReply(h, q)
		if h%2 == 0 {
			meta.ColdLoads = 1 + int(h)/2
			meta.ScanTime = time.Duration(h+1) * time.Millisecond
		}
		out[i] = BatchReply{Host: h, Result: res, Meta: meta}
		if h == 3 {
			out[i] = BatchReply{Host: h, Err: errors.New("host 3 is down")}
		}
	}
	return out, nil
}

// TestBatchedTraceConcurrentReads: a batched round's per-host spans are
// built on read, so the trace an execution returns is read by many at
// once — /slowlog beside pathdumpctl -trace — and must come out the same
// every time: an rpc span per answered host in DFS order (none for the
// failed one), each over a scan span built from its reply's measured
// fields — cold loads when there were any, and the scan time as its
// duration. Under -race the reads must not touch anything shared.
func TestBatchedTraceConcurrentReads(t *testing.T) {
	topo, _ := topology.FatTree(4)
	ctrl := New(topo, spanBatchTransport{}, nil)
	_, stats, err := ctrl.ExecuteTreeContext(context.Background(), hostRange(8), query.Query{Op: query.OpTopK, K: 4}, []int{2})
	if err == nil {
		t.Fatal("a failed host must fail the execution")
	}
	want := stats.Trace.Render()
	wantJSON, err := json.Marshal(stats.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var rpcs []string
	for _, line := range strings.Split(want, "\n") {
		if l := strings.TrimSpace(line); strings.HasPrefix(l, "rpc ") || strings.HasPrefix(l, "scan ") {
			rpcs = append(rpcs, l)
		}
	}
	wantRPCs := []string{
		"rpc host=h0 0s", "scan records=20000 segments_scanned=0 segments_pruned=0 cold_loads=1 1ms",
		"rpc host=h1 0s", "scan records=40000 segments_scanned=1 segments_pruned=1 0s",
		"rpc host=h2 0s", "scan records=60000 segments_scanned=2 segments_pruned=2 cold_loads=2 3ms",
		"rpc host=h4 0s", "scan records=100000 segments_scanned=0 segments_pruned=1 cold_loads=3 5ms",
		"rpc host=h5 0s", "scan records=120000 segments_scanned=1 segments_pruned=2 0s",
		"rpc host=h6 0s", "scan records=140000 segments_scanned=2 segments_pruned=0 cold_loads=4 7ms",
		"rpc host=h7 0s", "scan records=20000 segments_scanned=3 segments_pruned=1 0s",
	}
	if strings.Join(rpcs, "\n") != strings.Join(wantRPCs, "\n") {
		t.Fatalf("batched host spans:\n%s\nwant:\n%s\nin:\n%s", strings.Join(rpcs, "\n"), strings.Join(wantRPCs, "\n"), want)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if got := stats.Trace.Render(); got != want {
					t.Errorf("a concurrent Render differs:\n%s\nwant:\n%s", got, want)
					return
				}
				if got, err := json.Marshal(stats.Trace); err != nil || string(got) != string(wantJSON) {
					t.Errorf("a concurrent Marshal differs (%v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
