package controller

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// slowTransport answers every query after a fixed real-time delay — the
// stand-in for a remote agent on a management network. It counts the
// maximum number of concurrently outstanding requests so tests can verify
// the fan-out bound, and honours ctx like a real wire transport would:
// cancellation cuts the in-flight delay short.
type slowTransport struct {
	delay time.Duration

	inFlight atomic.Int64
	maxSeen  atomic.Int64
	calls    atomic.Int64
}

func (s *slowTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	cur := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		max := s.maxSeen.Load()
		if cur <= max || s.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	s.calls.Add(1)
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return query.Result{}, QueryMeta{}, ctx.Err()
	}
	res := query.Result{Op: q.Op}
	res.Top = []query.FlowBytes{{
		Flow:  types.FlowID{SrcIP: types.IP(host), DstIP: 1, SrcPort: 80, DstPort: 80, Proto: 6},
		Bytes: uint64(1000 + host),
	}}
	return res, QueryMeta{RecordsScanned: 100}, nil
}

func (s *slowTransport) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 1, nil
}
func (s *slowTransport) Uninstall(context.Context, types.HostID, int) error { return nil }

func hostRange(n int) []types.HostID {
	hosts := make([]types.HostID, n)
	for i := range hosts {
		hosts[i] = types.HostID(i)
	}
	return hosts
}

// TestFanoutParallelWallClock is the race-proving scaling test: a direct
// query over 64 hosts, each taking a real 2 ms, must complete in
// max-latency (parallel) rather than sum-latency (sequential) time — and
// with Parallelism 1 it must degrade to the sequential sum, proving the
// bound is real in both directions.
func TestFanoutParallelWallClock(t *testing.T) {
	const (
		hosts = 64
		delay = 2 * time.Millisecond
	)
	sum := time.Duration(hosts) * delay
	topo, _ := topology.FatTree(4)

	tr := &slowTransport{delay: delay}
	ctrl := New(topo, tr, nil)
	start := time.Now()
	res, stats, err := ctrl.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hosts != hosts || len(res.Top) != hosts {
		t.Fatalf("merged %d hosts, %d top entries", stats.Hosts, len(res.Top))
	}
	if elapsed >= sum/4 {
		t.Errorf("unbounded fan-out took %v — sequential-ish, want well under sum %v", elapsed, sum)
	}
	if got := tr.maxSeen.Load(); got < 2 {
		t.Errorf("max concurrent requests = %d, fan-out never overlapped", got)
	}

	serial := &slowTransport{delay: delay}
	ctrlSerial := New(topo, serial, nil)
	ctrlSerial.Parallelism = 1
	start = time.Now()
	if _, _, err := ctrlSerial.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts}); err != nil {
		t.Fatal(err)
	}
	serialElapsed := time.Since(start)
	if serialElapsed < sum {
		t.Errorf("parallelism 1 took %v, want at least the sequential sum %v", serialElapsed, sum)
	}
	if got := serial.maxSeen.Load(); got != 1 {
		t.Errorf("parallelism 1 saw %d concurrent requests", got)
	}
}

// TestFanoutBoundIsRespected checks that Parallelism caps outstanding
// requests across every level of an aggregation tree, not just the root.
func TestFanoutBoundIsRespected(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: time.Millisecond}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 4
	if _, _, err := ctrl.ExecuteTreeContext(context.Background(), hostRange(96), query.Query{Op: query.OpTopK, K: 10}, []int{6, 4}); err != nil {
		t.Fatal(err)
	}
	if got := tr.maxSeen.Load(); got > 4 {
		t.Errorf("saw %d concurrent requests, bound was 4", got)
	}
	if got := tr.calls.Load(); got != 96 {
		t.Errorf("queried %d hosts, want 96", got)
	}
}

// failTransport fails one host and records which hosts were still queried
// after the failure.
type failTransport struct {
	slowTransport
	bad types.HostID
}

func (f *failTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	if host == f.bad {
		return query.Result{}, QueryMeta{}, fmt.Errorf("host %v exploded", host)
	}
	return f.slowTransport.Query(ctx, host, q)
}

// TestFanoutFirstErrorSemantics: a failing host aborts the fan-out, the
// real error (not the abort echo) is reported, and the queried-host count
// stays below the full fleet because pending requests were skipped.
func TestFanoutFirstErrorSemantics(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &failTransport{slowTransport: slowTransport{delay: 2 * time.Millisecond}, bad: 13}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 4
	_, _, err := ctrl.ExecuteContext(context.Background(), hostRange(256), query.Query{Op: query.OpTopK, K: 5})
	if err == nil {
		t.Fatal("failing host did not fail the query")
	}
	if want := "host h13 exploded"; err.Error() != want {
		t.Errorf("err = %q, want the real failure %q", err, want)
	}
	if got := tr.calls.Load(); got >= 250 {
		t.Errorf("%d hosts queried after failure — no early abort", got)
	}
}

// TestBoundedParallelismModel: the §5.2 response-time model must reflect
// the knob. The same canned workload gets slower as modelled workers
// shrink, and parallelism 1 models the full serial sum.
func TestBoundedParallelismModel(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(64)
	q := query.Query{Op: query.OpTopK, K: 100}

	modelAt := func(p int) types.Time {
		ctrl := New(topo, cannedTransport{k: 100, records: 10_000}, nil)
		ctrl.Parallelism = p
		_, stats, err := ctrl.ExecuteContext(context.Background(), hosts, q)
		if err != nil {
			t.Fatal(err)
		}
		return stats.ResponseTime
	}
	unlimited := modelAt(0)
	p8 := modelAt(8)
	p1 := modelAt(1)
	if !(unlimited < p8 && p8 < p1) {
		t.Errorf("model not monotone in parallelism: unlimited=%v p8=%v p1=%v", unlimited, p8, p1)
	}
	// With one modelled worker the children serialise: response must be
	// at least 64 × the per-child service floor (RTT + ExecBase).
	cost := DefaultCostModel()
	if floor := 64 * (cost.RTT + cost.ExecBase); p1 < floor {
		t.Errorf("p1 response %v below serial floor %v", p1, floor)
	}
	// Results themselves must not depend on the bound.
	ctrlA := New(topo, cannedTransport{k: 100, records: 10_000}, nil)
	ctrlB := New(topo, cannedTransport{k: 100, records: 10_000}, nil)
	ctrlB.Parallelism = 3
	ra, _, _ := ctrlA.ExecuteContext(context.Background(), hosts, q)
	rb, _, _ := ctrlB.ExecuteContext(context.Background(), hosts, q)
	if len(ra.Top) != len(rb.Top) {
		t.Fatalf("result size changed with parallelism: %d vs %d", len(ra.Top), len(rb.Top))
	}
	for i := range ra.Top {
		if ra.Top[i] != rb.Top[i] {
			t.Fatalf("entry %d differs across parallelism settings", i)
		}
	}
}

// batchTransport wraps slowTransport with a QueryMany that answers all
// hosts in one call, so tests can confirm the controller batches leaves.
type batchTransport struct {
	slowTransport
	batchCalls atomic.Int64
	batched    atomic.Int64
}

func (b *batchTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]BatchReply, error) {
	b.batchCalls.Add(1)
	b.batched.Add(int64(len(hosts)))
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]BatchReply, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h types.HostID) {
			defer wg.Done()
			res := query.Result{Op: q.Op}
			res.Top = []query.FlowBytes{{
				Flow:  types.FlowID{SrcIP: types.IP(h), DstIP: 1, SrcPort: 80, DstPort: 80, Proto: 6},
				Bytes: uint64(1000 + h),
			}}
			out[i] = BatchReply{Host: h, Result: res, Meta: QueryMeta{RecordsScanned: 100}}
		}(i, h)
	}
	wg.Wait()
	return out, nil
}

// TestBatchTransportCollapsesLeafFanout: a query over a BatchTransport
// must issue one QueryMany for every host position — leaves and
// aggregation hosts, direct query or tree — and produce the same merged
// result as per-host queries.
func TestBatchTransportCollapsesLeafFanout(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(32)
	q := query.Query{Op: query.OpTopK, K: 32}

	bt := &batchTransport{slowTransport: slowTransport{delay: time.Millisecond}}
	ctrlBatch := New(topo, bt, nil)
	viaBatch, bstats, err := ctrlBatch.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := bt.batchCalls.Load(); got != 1 {
		t.Errorf("QueryMany called %d times, want 1", got)
	}
	if got := bt.batched.Load(); got != 32 {
		t.Errorf("batched %d hosts, want 32", got)
	}
	if got := bt.calls.Load(); got != 0 {
		t.Errorf("%d per-host queries despite batching", got)
	}

	plain := &slowTransport{delay: time.Millisecond}
	ctrlPlain := New(topo, plain, nil)
	viaPlain, pstats, err := ctrlPlain.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaBatch.Top) != len(viaPlain.Top) {
		t.Fatalf("batch %d entries, plain %d", len(viaBatch.Top), len(viaPlain.Top))
	}
	for i := range viaBatch.Top {
		if viaBatch.Top[i] != viaPlain.Top[i] {
			t.Errorf("entry %d differs between batch and plain transports", i)
		}
	}
	if bstats.Hosts != pstats.Hosts || bstats.ResponseTime != pstats.ResponseTime {
		t.Errorf("modelled stats diverge: batch=%+v plain=%+v", bstats, pstats)
	}

	// The tree shapes the fold, not the requests: its 12 aggregation hosts
	// ride the same single round as its 20 leaves.
	bt2 := &batchTransport{slowTransport: slowTransport{delay: time.Millisecond}}
	ctrlTree := New(topo, bt2, nil)
	viaTree, tstats, err := ctrlTree.ExecuteTreeContext(context.Background(), hosts, q, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tstats.Hosts != 32 || !reflect.DeepEqual(viaTree, viaBatch) {
		t.Errorf("tree over batch transport covered %d hosts, merged %d entries; want the direct query's answer", tstats.Hosts, len(viaTree.Top))
	}
	if calls, batched, perHost := bt2.batchCalls.Load(), bt2.batched.Load(), bt2.calls.Load(); calls != 1 || batched != 32 || perHost != 0 {
		t.Errorf("tree issued %d QueryMany carrying %d hosts and %d per-host queries, want 1, 32 and 0", calls, batched, perHost)
	}
}

// TestParallelInstallUninstall exercises the concurrent control fan-out
// against a non-serial transport.
func TestParallelInstallUninstall(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: time.Millisecond}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 8
	hosts := hostRange(64)
	start := time.Now()
	ids, err := ctrl.InstallContext(context.Background(), hosts, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = time.Since(start)
	if len(ids) != 64 {
		t.Fatalf("installed at %d hosts, want 64", len(ids))
	}
	if err := ctrl.UninstallContext(context.Background(), ids); err != nil {
		t.Fatal(err)
	}

	// Error semantics: errors.Is works through the fan-out.
	bad := &failingInstall{}
	ctrlBad := New(topo, bad, nil)
	ctrlBad.Parallelism = 4
	if _, err := ctrlBad.InstallContext(context.Background(), hosts, query.Query{}, 0); !errors.Is(err, errBoom) {
		t.Errorf("install error = %v, want errBoom", err)
	}
}

var errBoom = errors.New("boom")

type failingInstall struct{ slowTransport }

func (f *failingInstall) Install(ctx context.Context, h types.HostID, q query.Query, p types.Time) (int, error) {
	if h == 7 {
		return 0, errBoom
	}
	return 1, nil
}
