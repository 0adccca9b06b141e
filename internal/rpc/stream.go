// Streamed records-op responses. A records query over a busy host can
// match hundreds of thousands of records; materialising them into one
// reply slice and then one wire frame makes the daemon's peak memory
// O(reply) per in-flight request. When the client accepts the wire
// encoding, the /query handler instead writes the frame with a
// wire.QueryStreamWriter fed by Target.StreamRecords: records leave in
// bounded chunks as the scan produces them, the response flushes after
// every chunk so the controller's merge starts before the scan finishes,
// and the daemon never holds more than one chunk of the reply.
package rpc

import (
	"context"
	"errors"
	"net/http"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// StreamRecords implements Target: the store scan visits matching
// records directly, polling ctx between records of the cross-shard
// merge.
func (t SnapshotTarget) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	query.StoreView{S: t.Store}.ScanRecords(ctx, query.PredicateOf(q), fn)
	return ctx.Err()
}

// streamQueryResponse serves a records op as a chunked wire frame; the
// caller has checked that the op is OpRecords and that the client
// accepted the wire encoding.
//
// The frame's head carries no telemetry: the scan's, measured as every
// reply's is (controller.Evaluate), rides the end marker. Once the first chunk is
// written the HTTP status is committed, so a mid-scan failure (in
// practice: the client hung up) cannot turn into an error status; the
// writer is abandoned instead, leaving a truncated frame the client's
// decoder rejects.
func streamQueryResponse(w http.ResponseWriter, r *http.Request, t Target, q query.Query) {
	ctx := r.Context()
	if err := ctx.Err(); err != nil {
		writeExecuteError(w, err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	sw, err := wire.NewQueryStreamWriter(w, wire.Meta{}, q.Op, false)
	if err != nil {
		// Nothing reached the wire yet; the client sees a clean error.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if f, ok := w.(http.Flusher); ok {
		sw.OnChunk = f.Flush
	}
	_, m, serr := controller.Evaluate(ctx, t, q, func(rec *types.Record) {
		// Errors are sticky: once a flush fails, later appends no-op and
		// the scan winds down via its own ctx polls (the usual cause of a
		// failed flush is the client hanging up, which cancels ctx).
		_ = sw.Append(rec)
	})
	if serr == nil {
		serr = sw.Err()
	}
	if serr != nil {
		// The status line is long gone; truncation is the error signal.
		sw.Abort()
		return
	}
	if err := sw.CloseWith(m); err != nil && !errors.Is(err, wire.ErrStreamClosed) {
		sw.Abort()
	}
}
