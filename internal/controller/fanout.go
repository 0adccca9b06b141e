package controller

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pathdump/internal/obs"
)

// errAborted is the sentinel returned by fan-out slots acquired after an
// earlier request already failed: the distributed execution is being torn
// down and the remaining hosts are skipped (errgroup-style first-error
// semantics).
var errAborted = errors.New("controller: fan-out aborted after earlier error")

// fanout tracks one distributed execution: a bounded slot pool over
// outstanding transport requests plus a first-failure latch and the
// execution's context. A slot is held only for the duration of a
// transport call, so the bound applies to total outstanding requests —
// hosts, hedges and batched rounds alike. Cancelling the context latches
// the abort too: pending acquires fail fast with the context's error, and
// in-flight transport calls observe it through the ctx they were handed.
type fanout struct {
	// parallelism is the bound captured once at execution start, so the
	// semaphore, the batch-slot accounting and the modelled worker
	// schedule all see one consistent value even if the controller's
	// knob is retuned mid-flight.
	parallelism int
	ctx         context.Context
	sem         chan struct{} // nil means unlimited
	quit        chan struct{}
	once        sync.Once

	// Straggler policy, captured once at execution start (see
	// Controller.PerHostTimeout/HedgeAfter/PartialOnDeadline). Control-
	// plane fan-outs (Install/Uninstall) leave all three zero: a hedged
	// install could double-install, and a partial install is a rollback,
	// not a result.
	perHostTimeout time.Duration
	hedgeAfter     time.Duration
	partial        bool
	retryAttempts  int
	retryBackoff   time.Duration

	// queried counts hosts whose query completed successfully, so a
	// cancelled execution can report how many of the requested hosts were
	// skipped (ExecStats.Skipped).
	queried atomic.Int64
	// hedged counts duplicate requests actually issued (ExecStats.Hedged).
	hedged atomic.Int64
	// retried counts re-issued requests after real transport errors
	// (ExecStats.Retried).
	retried atomic.Int64

	// inflight mirrors the pool occupancy onto the controller's
	// fan-out-depth gauge; nil (uninstrumented) no-ops.
	inflight *obs.Gauge
}

func newFanout(ctx context.Context, parallelism int) *fanout {
	fo := &fanout{parallelism: parallelism, ctx: ctx, quit: make(chan struct{})}
	if parallelism > 0 {
		fo.sem = make(chan struct{}, parallelism)
	}
	return fo
}

// abort latches the first failure; pending acquires fail fast.
func (fo *fanout) abort() { fo.once.Do(func() { close(fo.quit) }) }

// err reports whether the fan-out has been cancelled or aborted. A
// cancelled context wins: it is the caller's own deadline or cancel, and
// more useful to report than the abort echo.
func (fo *fanout) err() error {
	if err := fo.ctx.Err(); err != nil {
		return err
	}
	select {
	case <-fo.quit:
		return errAborted
	default:
		return nil
	}
}

// acquire blocks until a request slot frees up, the context is cancelled,
// or the fan-out aborts.
func (fo *fanout) acquire() error {
	if err := fo.err(); err != nil {
		return err
	}
	if fo.sem == nil {
		fo.inflight.Add(1)
		return nil
	}
	select {
	case fo.sem <- struct{}{}:
		fo.inflight.Add(1)
		return nil
	case <-fo.ctx.Done():
		return fo.ctx.Err()
	case <-fo.quit:
		return errAborted
	}
}

func (fo *fanout) release() {
	fo.inflight.Add(-1)
	if fo.sem != nil {
		<-fo.sem
	}
}

// tryAcquire grabs a slot only if one is free right now: a batched round
// widens beyond its one guaranteed slot with it, and a hedge races its
// primary only when it gets one.
func (fo *fanout) tryAcquire() bool {
	if fo.sem == nil || fo.err() != nil {
		return false
	}
	select {
	case fo.sem <- struct{}{}:
		fo.inflight.Add(1)
		return true
	default:
		return false
	}
}

// attempt runs one request unit — a host's query or a batched round —
// under the per-host budget, re-issuing it on real transport errors
// (never on context expiry, aborts, or authoritative HTTP answers) up to
// retryAttempts times with backoff. The unit keeps its pool slot across
// the backoff: it is still outstanding work. Retries are tallied on sp.
func (fo *fanout) attempt(sp *obs.Span, call func(ctx context.Context) error) error {
	ctx := fo.ctx
	if fo.perHostTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(fo.ctx, fo.perHostTimeout)
		defer cancel()
	}
	err := call(ctx)
	retries := 0
	for ; retries < fo.retryAttempts && retryableTransportError(err); retries++ {
		if !sleepCtx(ctx, fo.retryDelay(retries)) || fo.err() != nil {
			break
		}
		fo.retried.Add(1)
		err = call(ctx)
	}
	if retries > 0 {
		sp.SetInt("retried", int64(retries))
	}
	return err
}

// retryableTransportError classifies a per-host failure for the retry
// policy: only real transport errors — the dial failed, the connection
// reset, the stream cut off — are worth re-asking, so the check is a
// whitelist of network-level failures (net.Error somewhere in the chain,
// or an EOF mid-stream). Everything else is permanent for this
// execution: context expiry is the caller's decision, an abort echoes
// someone else's failure, an HTTP status error means the server answered
// authoritatively (a 501 will be a 501 the second time too), and
// configuration errors (unknown host, no URL) or response-decode
// failures cannot heal by re-asking.
func retryableTransportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errAborted) {
		return false
	}
	var status interface{ HTTPStatus() int }
	if errors.As(err, &status) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// retryDelay is the jittered exponential backoff before retry attempt n
// (0-based): base·2ⁿ jittered down to [d/2, d), so synchronised failures
// across a fan-out do not re-converge on the failed host in lockstep.
func (fo *fanout) retryDelay(attempt int) time.Duration {
	d := fo.retryBackoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 0; i < attempt && d < 10*time.Second; i++ {
		d *= 2
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepCtx waits d or until ctx is done, reporting whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// firstError returns the most useful failure from an index-ordered error
// slice: the first real error if any (abort errors are just echoes of an
// earlier failure elsewhere in the fan-out, and cancellation errors are
// echoes of the caller's own ctx), otherwise the first cancellation,
// otherwise the first abort. Index order makes the reported error
// deterministic no matter which goroutine lost the race.
func firstError(errs []error) error {
	var aborted, cancelled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, errAborted):
			if aborted == nil {
				aborted = err
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if cancelled == nil {
				cancelled = err
			}
		default:
			return err
		}
	}
	if cancelled != nil {
		return cancelled
	}
	return aborted
}
