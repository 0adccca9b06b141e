// Context-aware query evaluation: a cancelled caller (HTTP client gone,
// controller deadline expired) must not pin a host's CPU on a pointless
// full TIB scan. Views that can thread a context into their scans declare
// ContextView; ExecuteContext wires the caller's context through and
// reports its error instead of a partial result.
package query

import (
	"context"

	"pathdump/internal/types"
)

// CancelCheckEvery is how many records a context-aware scan visits
// between cancellation polls. Polling ctx.Err() is an atomic load, but
// doing it per record would still dominate tight merge loops over
// millions of records; every few thousand keeps the abort latency in the
// microseconds while costing nothing measurable.
const CancelCheckEvery = 4096

// ContextView is an optional View extension: WithContext returns a view
// whose scans poll ctx and stop early once it is cancelled. Views that
// cannot interrupt their scans simply don't implement it — ExecuteContext
// still checks the context between operations.
type ContextView interface {
	WithContext(ctx context.Context) View
}

// ExecuteContext runs a query against a host's view under a context. A
// context cancelled before or during evaluation yields the context's
// error and no result (partial scans are discarded, never returned as if
// complete). Views implementing ContextView abort mid-scan; all views get
// at least entry/exit checks.
func ExecuteContext(ctx context.Context, q Query, v View) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{Op: q.Op}, err
	}
	if cv, ok := v.(ContextView); ok {
		v = cv.WithContext(ctx)
	}
	res, err := ExecuteE(q, v)
	if err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		// The partial result is discarded; recycle its pooled reply
		// buffer instead of leaking it to the collector.
		PutRecordBuf(res.Records)
		return Result{Op: q.Op}, err
	}
	return res, nil
}

// WithContext implements ContextView for bare-store views.
func (v StoreView) WithContext(ctx context.Context) View {
	v.ctx = ctx
	return v
}

// PollCancel adapts a record visitor into an early-stopping one for
// tib.Store.ScanSince: the returned callback polls ctx every
// CancelCheckEvery records and stops the scan once it is cancelled. It
// is the one shared definition of the in-scan poll policy — every
// context-aware view (the bare-store view here, the agent's live view)
// wraps its scans with it. The record count lives in the caller's *n, so
// a view that already sits on the heap pays for the closure and nothing
// else; a nil ctx never stops the scan.
func PollCancel(ctx context.Context, n *int, fn func(*types.Record)) func(*types.Record) bool {
	return func(rec *types.Record) bool {
		*n++
		if *n%CancelCheckEvery == 0 && ctx != nil && ctx.Err() != nil {
			return false
		}
		fn(rec)
		return true
	}
}
