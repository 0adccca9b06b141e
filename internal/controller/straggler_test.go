package controller

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// stallOnceTransport answers like slowTransport except that the first
// attempt at slowHost blocks until its context is cancelled — the classic
// straggler a hedged duplicate request is meant to beat. Later attempts
// (the hedge) answer at normal speed.
type stallOnceTransport struct {
	slowTransport
	slowHost     types.HostID
	slowAttempts atomic.Int64
}

func (s *stallOnceTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	if host == s.slowHost && s.slowAttempts.Add(1) == 1 {
		<-ctx.Done()
		return query.Result{}, QueryMeta{}, ctx.Err()
	}
	return s.slowTransport.Query(ctx, host, q)
}

// stallSetTransport stalls a fixed set of hosts forever (until cancelled)
// and answers the rest after an optional per-call random jitter drawn
// from jitter (nil = the base fixed delay).
type stallSetTransport struct {
	slowTransport
	stalled map[types.HostID]bool

	mu     sync.Mutex
	jitter *rand.Rand
	maxJit time.Duration
}

func (s *stallSetTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	if s.stalled[host] {
		<-ctx.Done()
		return query.Result{}, QueryMeta{}, ctx.Err()
	}
	if s.jitter != nil {
		s.mu.Lock()
		d := time.Duration(s.jitter.Int63n(int64(s.maxJit)))
		s.mu.Unlock()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return query.Result{}, QueryMeta{}, ctx.Err()
		}
	}
	return s.slowTransport.Query(ctx, host, q)
}

// TestHedgedRequestBeatsStraggler is the hedging acceptance test: a
// 64-host direct query where one host's primary request stalls forever
// must still complete with every host's data — the duplicate issued after
// HedgeAfter wins the race — within roughly one hedged round trip, and
// without leaking the losing attempt's goroutine. Without hedging this
// query would hang until the caller's deadline.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	const (
		hosts      = 64
		delay      = 10 * time.Millisecond
		hedgeAfter = 50 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)
	tr := &stallOnceTransport{slowTransport: slowTransport{delay: delay}, slowHost: 13}
	ctrl := New(topo, tr, nil)
	ctrl.HedgeAfter = hedgeAfter

	before := runtime.NumGoroutine()
	start := time.Now()
	res, stats, err := ctrl.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hosts != hosts || stats.Skipped != 0 || stats.Partial {
		t.Errorf("stats = %+v, want all %d hosts and no partial flag", stats, hosts)
	}
	if stats.Hedged < 1 {
		t.Error("ExecStats.Hedged = 0, want the duplicate request counted")
	}
	if len(res.Top) != hosts {
		t.Errorf("merged %d top entries, want %d (the stalled host's data must come via the hedge)", len(res.Top), hosts)
	}
	// ~1 hedged round trip: hedgeAfter + one normal delay, with generous
	// CI headroom. The point is that it is nowhere near a deadline or a
	// hang.
	if limit := hedgeAfter + 10*delay + 200*time.Millisecond; elapsed > limit {
		t.Errorf("hedged query took %v, want under %v", elapsed, limit)
	}
	if got := tr.slowAttempts.Load(); got < 2 {
		t.Errorf("stalled host saw %d attempts, want primary + hedge", got)
	}
	awaitGoroutineBaseline(t, before)
}

// TestHedgeRespectsParallelismBound: hedges draw real slots, so even with
// hedging firing the transport never sees more than Parallelism
// concurrent requests.
func TestHedgeRespectsParallelismBound(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &stallOnceTransport{slowTransport: slowTransport{delay: 5 * time.Millisecond}, slowHost: 3}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 4
	ctrl.HedgeAfter = 20 * time.Millisecond
	if _, stats, err := ctrl.ExecuteContext(context.Background(), hostRange(32), query.Query{Op: query.OpTopK, K: 32}); err != nil {
		t.Fatal(err)
	} else if stats.Hosts != 32 {
		t.Errorf("answered %d hosts, want 32", stats.Hosts)
	}
	if got := tr.maxSeen.Load(); got > 4 {
		t.Errorf("saw %d concurrent requests, bound was 4 (hedges must hold real slots)", got)
	}
}

// TestHedgeUnderFullPool: when every Parallelism slot is busy at hedge
// time — here the stalled primary holds the only slot there is — the
// hedge must not starve waiting for a second slot: it cancels the
// primary and retries on the slot the host already holds. The query
// completes, the bound is never exceeded, and nothing hangs.
func TestHedgeUnderFullPool(t *testing.T) {
	const (
		hosts      = 8
		delay      = 5 * time.Millisecond
		hedgeAfter = 30 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)
	tr := &stallOnceTransport{slowTransport: slowTransport{delay: delay}, slowHost: 0}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 1
	ctrl.HedgeAfter = hedgeAfter

	before := runtime.NumGoroutine()
	start := time.Now()
	res, stats, err := ctrl.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hosts != hosts || len(res.Top) != hosts {
		t.Errorf("answered %d hosts, merged %d entries, want %d", stats.Hosts, len(res.Top), hosts)
	}
	if stats.Hedged != 1 {
		t.Errorf("Hedged = %d, want exactly the one retry", stats.Hedged)
	}
	if got := tr.maxSeen.Load(); got != 1 {
		t.Errorf("saw %d concurrent requests at Parallelism 1 — the retry must reuse the vacated slot", got)
	}
	if limit := time.Duration(hosts)*delay + hedgeAfter + delay + 500*time.Millisecond; elapsed > limit {
		t.Errorf("query took %v, want under %v (no starvation)", elapsed, limit)
	}
	awaitGoroutineBaseline(t, before)
}

// TestPerHostTimeoutDropsStraggler: a host that stalls past its per-host
// budget is dropped — the query succeeds with the other 63 hosts' merged
// data, Partial set, within roughly the budget rather than any caller
// deadline.
func TestPerHostTimeoutDropsStraggler(t *testing.T) {
	const (
		hosts  = 64
		delay  = 5 * time.Millisecond
		budget = 60 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)
	tr := &stallSetTransport{slowTransport: slowTransport{delay: delay}, stalled: map[types.HostID]bool{13: true}}
	ctrl := New(topo, tr, nil)
	ctrl.PerHostTimeout = budget

	before := runtime.NumGoroutine()
	start := time.Now()
	res, stats, err := ctrl.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("per-host timeout must drop the straggler, not fail the query: %v", err)
	}
	if stats.Hosts != hosts-1 || stats.Skipped != 1 || !stats.Partial {
		t.Errorf("stats = %+v, want 63 answered / 1 skipped / partial", stats)
	}
	if len(res.Top) != hosts-1 {
		t.Errorf("merged %d top entries, want %d", len(res.Top), hosts-1)
	}
	if limit := budget + 10*delay + 200*time.Millisecond; elapsed > limit {
		t.Errorf("query took %v, want ~the per-host budget %v", elapsed, budget)
	}
	awaitGoroutineBaseline(t, before)
}

// TestPerHostTimeoutInTree: the budget drops a stalled interior
// aggregation host while its subtree's children still merge through the
// surviving levels.
func TestPerHostTimeoutInTree(t *testing.T) {
	const hosts = 64
	topo, _ := topology.FatTree(4)
	// buildLevels(hosts, [4,2]) makes hosts 0,16,32,48 aggregation nodes;
	// stall one of them.
	tr := &stallSetTransport{slowTransport: slowTransport{delay: 3 * time.Millisecond}, stalled: map[types.HostID]bool{16: true}}
	ctrl := New(topo, tr, nil)
	ctrl.PerHostTimeout = 50 * time.Millisecond

	res, stats, err := ctrl.ExecuteTreeContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hosts != hosts-1 || stats.Skipped != 1 || !stats.Partial {
		t.Errorf("stats = %+v, want only the stalled aggregation host missing", stats)
	}
	for _, fb := range res.Top {
		if fb.Flow.SrcIP == types.IP(16) {
			t.Errorf("dropped host 16's data appeared in the merge")
		}
	}
	if len(res.Top) != hosts-1 {
		t.Errorf("merged %d entries, want %d — the dropped node's children must still be merged", len(res.Top), hosts-1)
	}
}

// TestPartialOnDeadline: with PartialOnDeadline, a whole-query deadline
// expiry returns whatever was merged (Partial set, nil error) instead of
// DeadlineExceeded; without it the existing error behaviour stands, and
// explicit cancellation always errors.
func TestPartialOnDeadline(t *testing.T) {
	const (
		hosts = 64
		delay = 40 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)

	t.Run("partial", func(t *testing.T) {
		tr := &slowTransport{delay: delay}
		ctrl := New(topo, tr, nil)
		ctrl.Parallelism = 4
		ctrl.PartialOnDeadline = true
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		res, stats, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
		if err != nil {
			t.Fatalf("partial mode returned error %v, want merged partial result", err)
		}
		if !stats.Partial || stats.Skipped == 0 || stats.Hosts == 0 {
			t.Errorf("stats = %+v, want a genuine partial (some answered, some skipped)", stats)
		}
		if stats.Hosts+stats.Skipped != hosts {
			t.Errorf("answered %d + skipped %d != %d", stats.Hosts, stats.Skipped, hosts)
		}
		if len(res.Top) != stats.Hosts {
			t.Errorf("merged %d entries but %d hosts answered", len(res.Top), stats.Hosts)
		}
		awaitGoroutineBaseline(t, before)
	})

	t.Run("error-without-optin", func(t *testing.T) {
		tr := &slowTransport{delay: delay}
		ctrl := New(topo, tr, nil)
		ctrl.Parallelism = 4
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, _, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded without the partial opt-in", err)
		}
	})

	t.Run("cancel-still-errors", func(t *testing.T) {
		tr := &slowTransport{delay: delay}
		ctrl := New(topo, tr, nil)
		ctrl.Parallelism = 4
		ctrl.PartialOnDeadline = true
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(60 * time.Millisecond)
			cancel()
		}()
		_, _, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled — partial mode must not swallow explicit cancellation", err)
		}
	})

	t.Run("real-error-still-fails", func(t *testing.T) {
		tr := &failTransport{slowTransport: slowTransport{delay: 2 * time.Millisecond}, bad: 7}
		ctrl := New(topo, tr, nil)
		ctrl.PartialOnDeadline = true
		ctrl.PerHostTimeout = 500 * time.Millisecond
		_, _, err := ctrl.ExecuteContext(context.Background(), hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
		if err == nil || err.Error() != "host h7 exploded" {
			t.Fatalf("err = %v, want the real host failure — straggler tolerance must not mask it", err)
		}
	})
}

// TestPartialDeterminism is the satellite acceptance test: the same set
// of answering hosts, completing in different orders run to run, must
// yield byte-identical merged output and identical ExecStats. OpFlows is
// used deliberately — its merged slice order exposes merge-order
// nondeterminism that sorted ops (top-k) would hide.
func TestPartialDeterminism(t *testing.T) {
	const (
		hosts  = 64
		maxJit = 30 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)
	stalled := make(map[types.HostID]bool)
	for h := types.HostID(32); h < hosts; h++ {
		stalled[h] = true
	}

	runOnce := func(seed int64) (query.Result, ExecStats) {
		tr := &stallSetTransport{
			slowTransport: slowTransport{delay: time.Millisecond},
			stalled:       stalled,
			jitter:        rand.New(rand.NewSource(seed)),
			maxJit:        maxJit,
		}
		ctrl := New(topo, tr, nil)
		ctrl.PartialOnDeadline = true
		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		defer cancel()
		res, stats, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}

	base, baseStats := runOnce(1)
	if baseStats.Hosts != 32 || baseStats.Skipped != 32 || !baseStats.Partial {
		t.Fatalf("stats = %+v, want exactly the 32 live hosts answered", baseStats)
	}
	baseStats.Trace = nil
	for seed := int64(2); seed <= 4; seed++ {
		res, stats := runOnce(seed)
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("seed %d: merged result differs from baseline despite identical answering set", seed)
		}
		// Every execution carries its own span tree; only the stats
		// themselves must be deterministic.
		stats.Trace = nil
		if stats != baseStats {
			t.Fatalf("seed %d: ExecStats %+v differ from baseline %+v", seed, stats, baseStats)
		}
	}
}

// TestPerHostTimeoutModelCap: the §5.2 model learns the per-host budget —
// a modelled straggler is charged at most the budget, so the modelled
// response time of a partial query stays near the budget instead of the
// straggler's full service time.
func TestPerHostTimeoutModelCap(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(16)
	q := query.Query{Op: query.OpTopK, K: 100}

	// Huge per-host TIBs make modelled per-host service far exceed the cap.
	ctrl := New(topo, cannedTransport{k: 100, records: 50_000_000}, nil)
	ctrl.Cost.PerHostTimeout = 5 * types.Millisecond
	_, stats, err := ctrl.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	// 16 parallel children, each capped at 5 ms, plus merge costs: the
	// response must be of the cap's order, not the ~20 s of a 50M-record
	// scan.
	if stats.ResponseTime > 100*types.Millisecond {
		t.Errorf("modelled response %v ignores the per-host cap %v", stats.ResponseTime, ctrl.Cost.PerHostTimeout)
	}

	uncapped := New(topo, cannedTransport{k: 100, records: 50_000_000}, nil)
	_, full, err := uncapped.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.ResponseTime <= stats.ResponseTime {
		t.Errorf("uncapped model %v not above capped %v", full.ResponseTime, stats.ResponseTime)
	}
}

// budgetTransport answers like cannedTransport except that host `late`
// reports its per-host budget as exhausted — immediately, so the test
// needs no real waiting. batchBudgetTransport serves the same answers
// through QueryMany, where the late host's failure rides in its reply.
type budgetTransport struct {
	cannedTransport
	late types.HostID
}

func (b budgetTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	if host == b.late {
		return query.Result{}, QueryMeta{}, context.DeadlineExceeded
	}
	return b.cannedTransport.Query(ctx, host, q)
}

type batchBudgetTransport struct{ budgetTransport }

func (b batchBudgetTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := make([]BatchReply, len(hosts))
	for i, h := range hosts {
		res, meta, err := b.Query(ctx, h, q)
		out[i] = BatchReply{Host: h, Result: res, Meta: meta, Err: err}
	}
	return out, nil
}

// TestDroppedHostChargedAlikeOnBothPaths: what a dropped straggler costs
// in the model is one rule, not a property of the code path that dropped
// it — the same host dropped from a batched round and from a per-host
// request yields identical ExecStats (it sent nothing back, so it is
// charged the query going down, the budget, and no reply bytes).
func TestDroppedHostChargedAlikeOnBothPaths(t *testing.T) {
	topo, _ := topology.FatTree(4)
	// Host 6 is a leaf either way: one of 32 under the root, or — in the
	// [4,2] tree — one of three batched under aggregation host 4.
	hosts := hostRange(32)
	q := query.Query{Op: query.OpTopK, K: 10}
	base := budgetTransport{cannedTransport: cannedTransport{k: 10, records: 10_000}, late: 6}

	for _, fanouts := range [][]int{nil, {4, 2}} {
		var got [2]ExecStats
		for i, tr := range []Transport{base, batchBudgetTransport{base}} {
			ctrl := New(topo, tr, nil)
			ctrl.PerHostTimeout = time.Second
			_, stats, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, fanouts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Hosts != 31 || stats.Skipped != 1 || !stats.Partial {
				t.Fatalf("fanouts %v: stats = %+v, want exactly host 6 dropped", fanouts, stats)
			}
			stats.Trace = nil
			got[i] = stats
		}
		if got[0] != got[1] {
			t.Errorf("fanouts %v: per-host drop %+v, batched drop %+v — want identical stats", fanouts, got[0], got[1])
		}
	}
}

// lateDaemonTransport is a BatchTransport shaped like a fleet of daemons
// serving perDaemon hosts each: QueryMany answers every daemon's hosts at
// once except daemon late's, whose replies wait for the round's context to
// end and carry its error — what rpc.HTTPTransport.QueryMany hands back
// when one /batchquery outlives the budget and the others do not.
type lateDaemonTransport struct {
	cannedTransport
	perDaemon, late int
}

func (l lateDaemonTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := make([]BatchReply, len(hosts))
	for i, h := range hosts {
		if int(h)/l.perDaemon == l.late {
			<-ctx.Done()
			out[i] = BatchReply{Host: h, Err: ctx.Err()}
			continue
		}
		res, meta, err := l.Query(ctx, h, q)
		out[i] = BatchReply{Host: h, Result: res, Meta: meta, Err: err}
	}
	return out, nil
}

// TestBatchedTreeDropsOnlyTheLateDaemon pins the budget semantics a tree
// inherits from the flat round: on a batching transport the round, not the
// host, is the budgeted unit, so when PerHostTimeout — or the query's own
// deadline under PartialOnDeadline — expires mid-round, the daemons that
// had answered are kept and only the late one's hosts are dropped. A
// dropped aggregation host still merges its children, without its own data.
func TestBatchedTreeDropsOnlyTheLateDaemon(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(32)
	q := query.Query{Op: query.OpTopK, K: 32}
	// [4,2] over 32 hosts: 0, 8, 16 and 24 aggregate eight hosts each, and
	// under 8, hosts 9 and 12 aggregate 10–11 and 13–15. With daemons of
	// four, the late one serves 8–11: aggregation host 8 is dropped with
	// one of its subtrees, while the other answered from the next daemon.
	tr := lateDaemonTransport{cannedTransport: cannedTransport{k: 1, records: 1000}, perDaemon: 4, late: 2}
	for _, partial := range []bool{false, true} {
		name := "host-timeout"
		if partial {
			name = "partial-deadline"
		}
		t.Run(name, func(t *testing.T) {
			ctrl := New(topo, tr, nil)
			ctx := context.Background()
			if partial {
				ctrl.PartialOnDeadline = true
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
			} else {
				ctrl.PerHostTimeout = 30 * time.Millisecond
			}
			res, stats, err := ctrl.ExecuteTreeContext(ctx, hosts, q, []int{4, 2})
			if err != nil {
				t.Fatalf("a late daemon must be dropped, not fail the query: %v", err)
			}
			if stats.Hosts != 28 || stats.Skipped != 4 || !stats.Partial {
				t.Errorf("stats = %+v, want 28 answered / 4 skipped / partial", stats)
			}
			answered := make(map[types.HostID]bool)
			for _, fb := range res.Top {
				answered[types.HostID(fb.Flow.SrcIP>>16)] = true
			}
			for _, h := range hosts {
				if late := h >= 8 && h < 12; answered[h] == late {
					t.Errorf("host %v: in the merged answer = %v, late = %v", h, answered[h], late)
				}
			}
		})
	}
}
