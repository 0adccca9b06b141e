package controller

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// flakyTransport fails each host's first failFirst queries with a real
// transport error, then answers. Thread-safe; counts attempts.
type flakyTransport struct {
	mu        sync.Mutex
	failFirst int
	attempts  map[types.HostID]int
	err       error // error to fail with (default: a plain transport error)
}

func newFlaky(failFirst int, err error) *flakyTransport {
	if err == nil {
		// A realistic dial failure: *net.OpError reaches the controller
		// wrapped, exactly like http.Client returns it inside *url.Error.
		err = &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
	}
	return &flakyTransport{failFirst: failFirst, attempts: map[types.HostID]int{}, err: err}
}

func (f *flakyTransport) Query(ctx context.Context, h types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	if err := ctx.Err(); err != nil {
		return query.Result{}, QueryMeta{}, err
	}
	f.mu.Lock()
	f.attempts[h]++
	n := f.attempts[h]
	f.mu.Unlock()
	if n <= f.failFirst {
		return query.Result{}, QueryMeta{}, fmt.Errorf("host %v attempt %d: %w", h, n, f.err)
	}
	return query.Result{Op: q.Op, Bytes: uint64(h)}, QueryMeta{RecordsScanned: 1}, nil
}

func (f *flakyTransport) Install(ctx context.Context, h types.HostID, q query.Query, p types.Time) (int, error) {
	return 0, errors.New("not used")
}
func (f *flakyTransport) Uninstall(ctx context.Context, h types.HostID, id int) error {
	return errors.New("not used")
}

// statusErr mimics rpc.StatusError: the server answered authoritatively.
type statusErr struct{ code int }

func (e *statusErr) Error() string   { return fmt.Sprintf("HTTP %d", e.code) }
func (e *statusErr) HTTPStatus() int { return e.code }

// TestRetryTransientTransportError: bounded retries with backoff recover
// hosts whose first attempts hit real transport failures, and the stats
// report every re-issued request.
func TestRetryTransientTransportError(t *testing.T) {
	tr := newFlaky(2, nil) // each host fails twice, then answers
	c := New(nil, tr, nil)
	c.RetryAttempts = 3
	c.RetryBackoff = time.Millisecond
	hosts := []types.HostID{1, 2, 3, 4}

	res, stats, err := c.ExecuteContext(context.Background(), hosts, query.Query{Op: query.OpCount})
	if err != nil {
		t.Fatalf("Execute with retries = %v", err)
	}
	if res.Bytes != 1+2+3+4 {
		t.Errorf("merged result = %d, want every host's data", res.Bytes)
	}
	if stats.Hosts != 4 || stats.Partial {
		t.Errorf("stats = %+v, want 4 full hosts", stats)
	}
	if stats.Retried != 2*len(hosts) {
		t.Errorf("Retried = %d, want %d (two per host)", stats.Retried, 2*len(hosts))
	}
	if stats.Hedged != 0 {
		t.Errorf("Hedged = %d — retries must not count as hedges", stats.Hedged)
	}
}

// TestRetryExhausted: a host that keeps failing exhausts its attempts and
// the execution fails with the transport error (retry is not partiality).
func TestRetryExhausted(t *testing.T) {
	tr := newFlaky(10, nil)
	c := New(nil, tr, nil)
	c.RetryAttempts = 2
	c.RetryBackoff = time.Millisecond

	_, stats, err := c.ExecuteContext(context.Background(), []types.HostID{1}, query.Query{Op: query.OpCount})
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the transport error, got %v", err)
	}
	if got := tr.attempts[1]; got != 3 {
		t.Errorf("attempts = %d, want 1 primary + 2 retries", got)
	}
	if stats.Retried != 2 {
		t.Errorf("Retried = %d, want 2", stats.Retried)
	}
}

// TestNoRetryOnStatusError: an authoritative HTTP answer (a 501, say) is
// the server's decision — re-asking cannot change it, so it is never
// retried.
func TestNoRetryOnStatusError(t *testing.T) {
	tr := newFlaky(10, &statusErr{code: 501})
	c := New(nil, tr, nil)
	c.RetryAttempts = 5
	c.RetryBackoff = time.Millisecond

	_, stats, err := c.ExecuteContext(context.Background(), []types.HostID{1}, query.Query{Op: query.OpPoorTCP})
	var se *statusErr
	if !errors.As(err, &se) {
		t.Fatalf("want the status error, got %v", err)
	}
	if got := tr.attempts[1]; got != 1 {
		t.Errorf("attempts = %d — status errors must not be retried", got)
	}
	if stats.Retried != 0 {
		t.Errorf("Retried = %d, want 0", stats.Retried)
	}
}

// TestNoRetryOnPermanentError: configuration errors (unknown host, no
// URL) and other non-network failures cannot heal by re-asking, so the
// whitelist classification skips them even with retries enabled.
func TestNoRetryOnPermanentError(t *testing.T) {
	tr := newFlaky(10, errors.New("rpc: no URL for host h1"))
	c := New(nil, tr, nil)
	c.RetryAttempts = 5
	c.RetryBackoff = time.Millisecond

	_, stats, err := c.ExecuteContext(context.Background(), []types.HostID{1}, query.Query{Op: query.OpCount})
	if err == nil {
		t.Fatal("permanent error swallowed")
	}
	if got := tr.attempts[1]; got != 1 {
		t.Errorf("attempts = %d — permanent errors must not be retried", got)
	}
	if stats.Retried != 0 {
		t.Errorf("Retried = %d, want 0", stats.Retried)
	}
}

// TestNoRetryWithoutOptIn: RetryAttempts = 0 preserves fail-fast.
func TestNoRetryWithoutOptIn(t *testing.T) {
	tr := newFlaky(1, nil)
	c := New(nil, tr, nil)
	if _, _, err := c.ExecuteContext(context.Background(), []types.HostID{1}, query.Query{Op: query.OpCount}); err == nil {
		t.Fatal("transport error swallowed without retry opt-in")
	}
	if got := tr.attempts[1]; got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
}

// TestRetryHonoursCancellation: a caller cancelling mid-backoff gets its
// context error promptly instead of the full backoff schedule.
func TestRetryHonoursCancellation(t *testing.T) {
	tr := newFlaky(100, nil)
	c := New(nil, tr, nil)
	c.RetryAttempts = 10
	c.RetryBackoff = 10 * time.Second // would take ages if not interruptible

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := c.ExecuteContext(ctx, []types.HostID{1}, query.Query{Op: query.OpCount})
	if err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancellation took %v — backoff not interruptible", took)
	}
}

// TestRetrySegmentStatsFlow: QueryMeta segment telemetry propagates into
// ExecStats and the §5.2 pruned-fraction term discounts the modelled
// scan cost.
func TestRetrySegmentStatsFlow(t *testing.T) {
	seg := segTransport{scanned: 2, pruned: 18, records: 10_000}
	c := New(nil, seg, nil)
	_, stats, err := c.ExecuteContext(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpCount})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsScanned != 4 || stats.SegmentsPruned != 36 {
		t.Errorf("segment stats = %d/%d, want 4/36", stats.SegmentsScanned, stats.SegmentsPruned)
	}

	// Pruned fraction discounts modelled exec: 2/20 of the records at
	// ExecPerRecord versus all of them without telemetry.
	full := New(nil, segTransport{records: 10_000}, nil)
	_, fullStats, err := full.ExecuteContext(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpCount})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResponseTime >= fullStats.ResponseTime {
		t.Errorf("pruned query modelled at %v, full scan at %v — pruning must model cheaper",
			stats.ResponseTime, fullStats.ResponseTime)
	}
}

// segTransport reports fixed segment telemetry per query.
type segTransport struct {
	scanned, pruned, records int
}

func (s segTransport) Query(ctx context.Context, h types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	return query.Result{Op: q.Op}, QueryMeta{RecordsScanned: s.records, SegmentsScanned: s.scanned, SegmentsPruned: s.pruned}, nil
}
func (s segTransport) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 0, errors.New("not used")
}
func (s segTransport) Uninstall(context.Context, types.HostID, int) error {
	return errors.New("not used")
}
