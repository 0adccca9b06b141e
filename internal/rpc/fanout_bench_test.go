package rpc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pathdump/internal/controller"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// loopbackFleet boots ndaemons MultiAgentServer daemons, each serving
// perDaemon hosts whose stores hold nrec records — the e2e shape of a
// controller fan-out, over real loopback HTTP. reg, when non-nil, supplies
// daemon d's metrics registry (the shape of a production deployment).
func loopbackFleet(tb testing.TB, ndaemons, perDaemon, nrec int, reg func(d int) *obs.Registry) (map[types.HostID]string, []types.HostID, map[types.HostID]Target) {
	tb.Helper()
	urls := make(map[types.HostID]string)
	all := make(map[types.HostID]Target)
	var hosts []types.HostID
	for d := 0; d < ndaemons; d++ {
		targets := make(map[types.HostID]Target)
		for i := 0; i < perDaemon; i++ {
			h := types.HostID(d*perDaemon + i)
			targets[h] = SnapshotTarget{Store: seedStore(int(h), nrec)}
			all[h] = targets[h]
			hosts = append(hosts, h)
		}
		ms := &MultiAgentServer{Targets: targets}
		if reg != nil {
			ms.Obs = &ServerObs{Registry: reg(d)}
		}
		srv := httptest.NewServer(ms.Handler())
		tb.Cleanup(srv.Close)
		for h := range targets {
			urls[h] = srv.URL
		}
	}
	return urls, hosts, all
}

// recycle hands the replies' records back to the pool the decoder drew
// them from, as the controller does once its merge has copied them. The
// daemons of a loopback fleet share that pool, so a caller that kept the
// buffers would have every daemon regrow its reply from nothing.
func recycle(replies []controller.BatchReply) {
	for i := range replies {
		query.PutRecordBuf(replies[i].Result.Records)
	}
}

// BenchmarkParallelFanout is the acceptance benchmark for the data
// plane: a 128-host fan-out (8 multi-agent daemons × 16 hosts) pulling
// 32 records per host over real loopback HTTP, at parallelism 1 versus
// 8. It measures request encode, response encode/decode, and connection
// reuse, so codec and transport regressions land here.
func BenchmarkParallelFanout(b *testing.B) {
	const (
		daemons   = 8
		perDaemon = 16
		records   = 32
	)
	urls, hosts, _ := loopbackFleet(b, daemons, perDaemon, records, nil)
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	ctx := context.Background()

	run := func(tr *HTTPTransport, parallel int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				replies, err := tr.QueryMany(ctx, hosts, q, parallel)
				if err != nil {
					b.Fatal(err)
				}
				if len(replies) != len(hosts) {
					b.Fatalf("%d replies for %d hosts", len(replies), len(hosts))
				}
				recycle(replies)
			}
			// Both ends of the loopback run in this process: a host's
			// share covers the daemon's side of its query too.
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(len(hosts)), "allocs/host")
		}
	}
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallelism-%d", p), run(&HTTPTransport{URLs: urls}, p))
	}
}

// BenchmarkTracedFanout is BenchmarkParallelFanout with the
// observability plane switched on: every daemon instrumented with the
// rpc metrics middleware and every request carrying a trace ID. Its
// sub-bench names match ParallelFanout's on purpose — CI renames and
// diffs the two to enforce the instrumentation-overhead budget.
func BenchmarkTracedFanout(b *testing.B) {
	const (
		daemons   = 8
		perDaemon = 16
		records   = 32
	)
	reg := obs.NewRegistry()
	urls, hosts, _ := loopbackFleet(b, daemons, perDaemon, records, func(int) *obs.Registry { return reg })
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTraceID())

	run := func(tr *HTTPTransport, parallel int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replies, err := tr.QueryMany(ctx, hosts, q, parallel)
				if err != nil {
					b.Fatal(err)
				}
				if len(replies) != len(hosts) {
					b.Fatalf("%d replies for %d hosts", len(replies), len(hosts))
				}
				recycle(replies)
			}
		}
	}
	for _, p := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallelism-%d", p), run(&HTTPTransport{URLs: urls}, p))
	}
}

// BenchmarkBatchServe is one daemon's side of a batched round, without a
// socket: a 16-host top-k /batchquery, wire in and wire out, through
// MultiAgentServer.Handler() into a ResponseRecorder, with the request
// bounding the daemon to W evaluations at once. B/op is what the daemon
// holds to answer: the sections in flight, never the whole batch.
func BenchmarkBatchServe(b *testing.B) {
	const hosts = 16
	targets := make(map[types.HostID]Target)
	ids := make([]types.HostID, hosts)
	for i := range ids {
		ids[i] = types.HostID(i)
		targets[ids[i]] = SnapshotTarget{Store: seedStore(i, 4)}
	}
	h := (&MultiAgentServer{Targets: targets}).Handler()
	q := query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink}
	for _, w := range []int{1, 4} {
		var body bytes.Buffer
		if err := wire.WriteBatchRequest(&body, ids, &q, w); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("W-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/batchquery", bytes.NewReader(body.Bytes()))
				req.Header.Set("Content-Type", wire.ContentType)
				req.Header.Set("Accept", wire.ContentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkTreeFanout is the controller's side of the same fleet: one
// top-k through the [4,4,8] aggregation tree over 128 hosts — fetch (one
// /batchquery per daemon), fold along the tree, trace and accounting
// included. allocs/host covers both ends of the loopback, as above.
func BenchmarkTreeFanout(b *testing.B) {
	urls, hosts, _ := loopbackFleet(b, 8, 16, 4, nil)
	topo, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := controller.New(topo, &HTTPTransport{URLs: urls}, nil)
	ctrl.Parallelism = 8
	q := query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink}
	b.Run("128-hosts", func(b *testing.B) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			_, stats, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, []int{4, 4, 8})
			if err != nil || stats.Hosts != len(hosts) {
				b.Fatalf("%d of %d hosts answered, err %v", stats.Hosts, len(hosts), err)
			}
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(len(hosts)), "allocs/host")
	})
}
