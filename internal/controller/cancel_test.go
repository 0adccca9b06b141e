package controller

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// awaitGoroutineBaseline asserts the goroutine count settles back to (or
// below) the pre-test baseline, retrying briefly: fan-out goroutines that
// observed the cancellation are allowed a moment to unwind, but nothing
// may stay parked forever (the leak a cancelled-but-unwaited fan-out
// would produce).
func awaitGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after cancellation: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFanoutCancelPromptReturn is the cancellation acceptance test: a
// 64-host direct query over the slow transport at Parallelism 1 would
// take the full sequential sum (64 × 50 ms = 3.2 s). Cancelling shortly
// after it starts must return within roughly one per-host round trip —
// the in-flight request aborts its delay, pending hosts are skipped — and
// must not leak a single fan-out goroutine.
func TestFanoutCancelPromptReturn(t *testing.T) {
	const (
		hosts      = 64
		delay      = 50 * time.Millisecond
		cancelAt   = 75 * time.Millisecond
		promptness = 3 * delay // generous CI headroom; the sum is 64×delay
	)
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: delay}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 1

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(cancelAt)
		cancel()
	}()
	start := time.Now()
	_, stats, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: hosts})
	elapsed := time.Since(start)
	cancel()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > cancelAt+promptness {
		t.Errorf("cancelled query took %v, want within ~%v of the %v cancel (sequential sum is %v)",
			elapsed, promptness, cancelAt, hosts*delay)
	}
	if stats.Skipped == 0 {
		t.Error("ExecStats.Skipped = 0, want the cut-off hosts reported")
	}
	if stats.Hosts+stats.Skipped != hosts {
		t.Errorf("answered %d + skipped %d != %d requested", stats.Hosts, stats.Skipped, hosts)
	}
	if got := tr.calls.Load(); got >= hosts/2 {
		t.Errorf("%d hosts queried after cancellation — fan-out did not stop", got)
	}
	awaitGoroutineBaseline(t, before)
}

// TestFanoutDeadlinePromptReturn: the same fixture driven by
// context.WithTimeout — the -timeout flag's code path — reports
// DeadlineExceeded and returns promptly.
func TestFanoutDeadlinePromptReturn(t *testing.T) {
	const (
		hosts = 64
		delay = 50 * time.Millisecond
	)
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: delay}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 2

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, stats, err := ctrl.ExecuteContext(ctx, hostRange(hosts), query.Query{Op: query.OpTopK, K: 5})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 80*time.Millisecond+3*delay {
		t.Errorf("deadline-bounded query took %v", elapsed)
	}
	if stats.Skipped == 0 || stats.Hosts+stats.Skipped != hosts {
		t.Errorf("stats = %+v, want skipped hosts accounted", stats)
	}
	awaitGoroutineBaseline(t, before)
}

// TestTreeCancelMidFanout: cancellation propagates through every level of
// an aggregation tree, not just the root's direct children.
func TestTreeCancelMidFanout(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: 30 * time.Millisecond}
	ctrl := New(topo, tr, nil)
	ctrl.Parallelism = 2

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(45 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := ctrl.ExecuteTreeContext(ctx, hostRange(96), query.Query{Op: query.OpTopK, K: 10}, []int{6, 4})
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 300*time.Millisecond {
		t.Errorf("tree cancel took %v", elapsed)
	}
	if stats.Hosts+stats.Skipped != 96 {
		t.Errorf("answered %d + skipped %d != 96", stats.Hosts, stats.Skipped)
	}
	awaitGoroutineBaseline(t, before)
}

// TestPreCancelledContext: an already-cancelled context never touches the
// transport at all.
func TestPreCancelledContext(t *testing.T) {
	topo, _ := topology.FatTree(4)
	tr := &slowTransport{delay: time.Millisecond}
	ctrl := New(topo, tr, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := ctrl.ExecuteContext(ctx, hostRange(16), query.Query{Op: query.OpTopK, K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := tr.calls.Load(); got != 0 {
		t.Errorf("%d transport calls despite pre-cancelled context", got)
	}
	if stats.Skipped != 16 {
		t.Errorf("Skipped = %d, want all 16", stats.Skipped)
	}
	if _, err := ctrl.QueryHostContext(ctx, 1, query.Query{Op: query.OpFlows}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryHostContext err = %v, want context.Canceled", err)
	}
}

// TestModelDeadlineCapsResponse: the §5.2 cost model honours a per-query
// deadline. A 64-host direct query at modelled parallelism 1 charges the
// full serial sum (64 × (RTT + ExecBase) at minimum); with a deadline of
// roughly one slow-host round trip the modelled response caps there — the
// controller returns whatever has arrived.
func TestModelDeadlineCapsResponse(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(64)
	q := query.Query{Op: query.OpTopK, K: 100}

	uncapped := New(topo, cannedTransport{k: 100, records: 10_000}, nil)
	uncapped.Parallelism = 1
	_, full, err := uncapped.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCostModel()
	serialFloor := 64 * (cost.RTT + cost.ExecBase)
	if full.ResponseTime < serialFloor {
		t.Fatalf("uncapped serial response %v below floor %v", full.ResponseTime, serialFloor)
	}

	capped := New(topo, cannedTransport{k: 100, records: 10_000}, nil)
	capped.Parallelism = 1
	oneHost := cost.RTT + cost.ExecBase + 2*types.Millisecond // ~one slow-host round trip
	capped.Cost.Deadline = oneHost
	_, stats, err := capped.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResponseTime != oneHost {
		t.Errorf("deadline-capped response = %v, want exactly the deadline %v (uncapped %v)",
			stats.ResponseTime, oneHost, full.ResponseTime)
	}
	// A deadline the query beats anyway must not distort the model.
	capped.Cost.Deadline = full.ResponseTime * 2
	_, loose, err := capped.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if loose.ResponseTime != full.ResponseTime {
		t.Errorf("loose deadline changed response: %v vs %v", loose.ResponseTime, full.ResponseTime)
	}
}

// rollbackTransport records installs and uninstalls so tests can verify
// the partial-failure rollback. Host `bad` always fails installation.
type rollbackTransport struct {
	slowTransport
	bad types.HostID

	mu        sync.Mutex
	next      int
	installed map[types.HostID]int
}

func (r *rollbackTransport) Install(ctx context.Context, h types.HostID, q query.Query, p types.Time) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if h == r.bad {
		return 0, errBoom
	}
	time.Sleep(200 * time.Microsecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.installed == nil {
		r.installed = make(map[types.HostID]int)
	}
	r.next++
	r.installed[h] = r.next
	return r.next, nil
}

func (r *rollbackTransport) Uninstall(ctx context.Context, h types.HostID, id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	got, ok := r.installed[h]
	if !ok {
		return fmt.Errorf("uninstall of never-installed host %v", h)
	}
	if got != id {
		return fmt.Errorf("uninstall host %v id %d, installed id was %d", h, id, got)
	}
	delete(r.installed, h)
	return nil
}

func (r *rollbackTransport) remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.installed)
}

// serialRollbackTransport is rollbackTransport behind SerialControl,
// covering the serial install path's rollback too.
type serialRollbackTransport struct{ rollbackTransport }

func (*serialRollbackTransport) SerialControl() {}

// TestInstallRollbackOnPartialFailure: a failed fleet install uninstalls
// everything that did get installed before returning the real error, and
// returns no ID map — callers must never see orphaned handles.
func TestInstallRollbackOnPartialFailure(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(64)

	t.Run("concurrent", func(t *testing.T) {
		tr := &rollbackTransport{bad: 37}
		ctrl := New(topo, tr, nil)
		ctrl.Parallelism = 8
		ids, err := ctrl.InstallContext(context.Background(), hosts, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want errBoom", err)
		}
		if ids != nil {
			t.Errorf("failed install returned ids %v, want nil", ids)
		}
		if n := tr.remaining(); n != 0 {
			t.Errorf("%d hosts left with orphaned installed queries after rollback", n)
		}
	})

	t.Run("serial", func(t *testing.T) {
		tr := &serialRollbackTransport{rollbackTransport{bad: 5}}
		ctrl := New(topo, tr, nil)
		ids, err := ctrl.InstallContext(context.Background(), hosts, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want errBoom", err)
		}
		if ids != nil {
			t.Errorf("failed install returned ids %v, want nil", ids)
		}
		if n := tr.remaining(); n != 0 {
			t.Errorf("%d orphaned installs after serial rollback", n)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		// Cancellation mid-install must also roll back: the rollback runs
		// on a detached context even though the caller's is dead.
		tr := &rollbackTransport{bad: types.HostID(1 << 30)} // no failing host
		ctrl := New(topo, tr, nil)
		ctrl.Parallelism = 2
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		ids, err := ctrl.InstallContext(ctx, hosts, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
		cancel()
		if err == nil {
			// The whole fleet beat the cancel; nothing to roll back.
			if len(ids) != len(hosts) {
				t.Fatalf("successful install returned %d ids", len(ids))
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ids != nil {
			t.Errorf("cancelled install returned ids %v, want nil", ids)
		}
		if n := tr.remaining(); n != 0 {
			t.Errorf("%d orphaned installs after cancelled install", n)
		}
	})
}

// serialScript is a SerialControl transport that logs every control call
// in order and plays a per-host script: failing installs and uninstalls,
// and a host whose call cancels the caller's context.
type serialScript struct {
	slowTransport
	installErr   map[types.HostID]error
	uninstallErr map[types.HostID]error
	cancelAt     types.HostID // this host's call cancels the context...
	cancel       context.CancelFunc

	calls    []string // "i3", "u3": install / uninstall at host 3
	deadCtxs int      // calls that arrived on an already-cancelled context
}

func (*serialScript) SerialControl() {}

func (s *serialScript) record(ctx context.Context, kind string, h types.HostID) {
	if ctx.Err() != nil {
		s.deadCtxs++
	}
	s.calls = append(s.calls, fmt.Sprintf("%s%d", kind, h))
	if s.cancel != nil && h == s.cancelAt {
		s.cancel()
	}
}

func (s *serialScript) Install(ctx context.Context, h types.HostID, _ query.Query, _ types.Time) (int, error) {
	s.record(ctx, "i", h)
	return int(h) + 100, s.installErr[h]
}

func (s *serialScript) Uninstall(ctx context.Context, h types.HostID, id int) error {
	s.record(ctx, "u", h)
	if id != int(h)+100 {
		return fmt.Errorf("uninstall host %v with id %d", h, id)
	}
	return s.uninstallErr[h]
}

// TestSerialControlFanout pins the in-order mode of the control-plane
// fan-out (SerialControl transports, e.g. Local, whose installs register
// timers on a single-threaded simulator): calls happen strictly in host
// order on the calling goroutine — serialScript is unsynchronised, so
// -race fails otherwise — Install stops at the first failure and rolls
// back on a context detached from the caller's, Uninstall attempts every
// host and reports the first real error in host order, and a cancelled
// context is noticed before every host.
func TestSerialControlFanout(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(6)
	q := query.Query{Op: query.OpPoorTCP, Threshold: 3}
	trace := func(s *serialScript) string { return fmt.Sprint(s.calls) }

	t.Run("order", func(t *testing.T) {
		tr := &serialScript{}
		ctrl := New(topo, tr, nil)
		ids, err := ctrl.InstallContext(context.Background(), hosts, q, types.Second)
		if err != nil || len(ids) != len(hosts) {
			t.Fatalf("install: %v, %d ids", err, len(ids))
		}
		if err := ctrl.UninstallContext(context.Background(), ids); err != nil {
			t.Fatal(err)
		}
		if got, want := trace(tr), "[i0 i1 i2 i3 i4 i5 u0 u1 u2 u3 u4 u5]"; got != want {
			t.Errorf("calls = %s, want %s", got, want)
		}
	})

	t.Run("install-stops-and-rolls-back-detached", func(t *testing.T) {
		// Host 3 fails and, for good measure, kills the caller's context
		// on the way: hosts 4 and 5 are never attempted, and the rollback
		// of 0..2 still runs — on a live context.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tr := &serialScript{installErr: map[types.HostID]error{3: errBoom}, cancelAt: 3, cancel: cancel}
		ctrl := New(topo, tr, nil)
		ids, err := ctrl.InstallContext(ctx, hosts, q, types.Second)
		if !errors.Is(err, errBoom) || ids != nil {
			t.Fatalf("install = %v, %v; want errBoom and no ids", ids, err)
		}
		if got, want := trace(tr), "[i0 i1 i2 i3 u0 u1 u2]"; got != want {
			t.Errorf("calls = %s, want %s", got, want)
		}
		if tr.deadCtxs != 0 {
			t.Errorf("%d rollback calls ran on the cancelled context", tr.deadCtxs)
		}
	})

	t.Run("uninstall-attempts-all-first-real-error", func(t *testing.T) {
		// Host 1's failure is only a cancellation echo; host 2's and host
		// 4's are real. Everyone is attempted; host 2's error is reported.
		errLater := errors.New("later")
		tr := &serialScript{uninstallErr: map[types.HostID]error{
			1: fmt.Errorf("host 1: %w", context.Canceled), 2: errBoom, 4: errLater}}
		ctrl := New(topo, tr, nil)
		ids := make(map[types.HostID]int)
		for _, h := range hosts {
			ids[h] = int(h) + 100
		}
		if err := ctrl.UninstallContext(context.Background(), ids); !errors.Is(err, errBoom) {
			t.Errorf("err = %v, want host 2's errBoom", err)
		}
		if got, want := trace(tr), "[u0 u1 u2 u3 u4 u5]"; got != want {
			t.Errorf("calls = %s, want %s", got, want)
		}
	})

	t.Run("cancel-checked-before-every-host", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tr := &serialScript{cancelAt: 2, cancel: cancel}
		ctrl := New(topo, tr, nil)
		ids := make(map[types.HostID]int)
		for _, h := range hosts {
			ids[h] = int(h) + 100
		}
		if err := ctrl.UninstallContext(ctx, ids); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled: hosts 3..5 were never attempted", err)
		}
		if got, want := trace(tr), "[u0 u1 u2]"; got != want {
			t.Errorf("calls = %s, want %s", got, want)
		}
	})
}
