// Controller-side standby assembly over incremental snapshots.
//
// A StandbyReplica keeps a warm copy of one host's TIB: the first Sync
// pulls a full snapshot, every later Sync pulls only the delta past the
// replica's own high-water sequence and reconciles it in place. When a
// delta cannot be applied — the daemon evicted past the watermark and
// fell back to a full stream (handled transparently), or the replica
// diverged from the source lineage (tib.ErrIncompatibleDelta) — Sync
// falls back to one full pull, so a standby converges from any state.
package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// SnapshotPuller is the transport surface StandbyReplica needs;
// *HTTPTransport provides it.
type SnapshotPuller interface {
	PullSnapshotSince(ctx context.Context, host types.HostID, since uint64, w io.Writer) (int64, error)
}

// StandbyReplica assembles and maintains a warm copy of one host's TIB.
// Not safe for concurrent Sync calls; reads of Store are safe anytime
// (tib applies snapshots and deltas atomically under its shard locks).
type StandbyReplica struct {
	Host  types.HostID
	Store *tib.Store
	tr    SnapshotPuller

	// syncs/fullPulls/deltaBytes tell operators how the replica has been
	// fed: deltaBytes growing while fullPulls stays flat is the steady
	// state; climbing fullPulls means the sync period is outrunning the
	// daemon's retention.
	syncs, fullPulls int
	deltaBytes       int64
}

// NewStandbyReplica builds an empty replica of host, fed via tr.
func NewStandbyReplica(tr SnapshotPuller, host types.HostID) *StandbyReplica {
	return &StandbyReplica{Host: host, Store: tib.NewStore(), tr: tr}
}

// Sync brings the replica up to date with the live daemon. The first
// call (empty replica) pulls a full snapshot; later calls pull the
// delta past the replica's high-water sequence. An unreconcilable delta
// falls back to one full pull inside the same call.
func (s *StandbyReplica) Sync(ctx context.Context) error {
	s.syncs++
	since := s.Store.LastSeq()
	if since == 0 {
		return s.fullSync(ctx)
	}
	var buf bytes.Buffer
	n, err := s.tr.PullSnapshotSince(ctx, s.Host, since, &buf)
	if err != nil {
		return err
	}
	if err := s.Store.ApplyIncremental(bytes.NewReader(buf.Bytes())); err != nil {
		if errors.Is(err, tib.ErrIncompatibleDelta) {
			return s.fullSync(ctx)
		}
		return err
	}
	s.deltaBytes += n
	return nil
}

// fullSync replaces the replica's store from one full snapshot pull.
func (s *StandbyReplica) fullSync(ctx context.Context) error {
	s.fullPulls++
	var buf bytes.Buffer
	if _, err := s.tr.PullSnapshotSince(ctx, s.Host, 0, &buf); err != nil {
		return err
	}
	return s.Store.LoadSnapshot(&buf)
}

// StandbyStats is a replica's feeding telemetry.
type StandbyStats struct {
	// Syncs counts Sync calls; FullPulls how many resorted to a full
	// snapshot (the first always does).
	Syncs, FullPulls int
	// DeltaBytes totals the incremental stream bytes applied.
	DeltaBytes int64
	// LastSeq is the replica's high-water arrival sequence — the
	// watermark its next Sync will pull from.
	LastSeq uint64
}

// Stats reports the replica's feeding telemetry.
func (s *StandbyReplica) Stats() StandbyStats {
	return StandbyStats{Syncs: s.syncs, FullPulls: s.fullPulls, DeltaBytes: s.deltaBytes, LastSeq: s.Store.LastSeq()}
}
