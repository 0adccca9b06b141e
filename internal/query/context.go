// Context-aware query evaluation: a cancelled caller (HTTP client gone,
// controller deadline expired) must not pin a host's CPU on a pointless
// full TIB scan. ExecuteContext hands the caller's context to every scan
// of the view, and the view's scans poll it through PollCancel.
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

// PollCancel adapts a record visitor into an early-stopping one for
// tib.Store.ScanSince: the returned callback polls ctx every
// CancelCheckEvery records and stops the scan once it is cancelled. It
// is the one shared definition of the in-scan poll policy — every view
// over a store (the bare-store view here, the agent's live view) wraps
// its scans with it. It inlines, the record count lives in the caller's
// *n, and ScanSince does not retain its callback, so the closure stays on
// the caller's stack: a poll costs a scan no allocation.
func PollCancel(ctx context.Context, n *int, fn func(*types.Record)) func(*types.Record) bool {
	return func(rec *types.Record) bool {
		*n++
		if *n%CancelCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		fn(rec)
		return true
	}
}
