package agent

import (
	"context"
	"sync"

	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// agentView is the host's queryable state: the TIB store plus the
// per-path flow records still in the trajectory memory (the paper's IPC
// lookup that lets queries see data not yet exported, §3.2). It is a
// record scanner and the TCP monitor, nothing else — query.ExecuteContext
// derives every op from ScanRecords.
//
// Views are recycled with the memory a scan needs — the buffer the live
// lookup fills, the one record the visitor is shown — so a host-query
// allocates its answer and no copy of the host's state. Whoever took a
// view releases it once the evaluation has returned; a result never
// aliases it (records are copied out, paths belong to the trajectory
// cache or the store).
type agentView struct {
	a      *Agent
	polled int            // records visited, for the cancellation poll
	live   []tib.MemEntry // the current scan's lookup in the trajectory memory
	rec    types.Record   // the live record a visitor is shown
}

var views = sync.Pool{New: func() any { return new(agentView) }}

// view takes a pooled view of the agent's queryable state.
func (a *Agent) view() *agentView {
	v := views.Get().(*agentView)
	v.a, v.polled = a, 0
	return v
}

// release recycles the view: nothing may read it, or the record a scan
// showed its visitor, afterwards (the race build poisons both, so a late
// reader fails loudly instead of reading the next query's lookup).
func (v *agentView) release() {
	v.a, v.rec = nil, types.Record{}
	v.poison()
	views.Put(v)
}

// ScanRecords implements query.View over store + live records: the
// predicate — including its arrival-sequence window, the incremental
// trigger path — is pushed down into the segmented store (whole-segment
// time and watermark pruning, index postings), and the handful of
// not-yet-exported live records follow (they carry no sequence and count
// as in-window — by construction new). Those are looked up by the
// predicate's flow and time terms (Memory.AppendLive) before the store
// scan of the same call, so a record exported mid-scan is seen at most
// twice, never missed; Match then applies the link term to a constructed
// path, outside the memory's lock. The TIB scan polls ctx between merged
// shard records and aborts once it is cancelled, so a caller that hung up
// (or a controller deadline that fired) does not pin this host on a full
// scan.
func (v *agentView) ScanRecords(ctx context.Context, p query.Predicate, fn func(*types.Record)) {
	v.live = v.a.Mem.AppendLive(v.live[:0], p.Flow, p.Range)
	// The query.View contract has no error channel: a cold-tier read
	// fault yields the resident portion of the answer, with the fault
	// counted in the store's ColdStats (see tib.Store.Flows for the
	// contract).
	_ = v.a.Store.ScanSince(p.MinSeq, p.MaxSeq, p.Flow, p.Link, p.Range, query.PollCancel(ctx, &v.polled, fn))
	if ctx.Err() != nil {
		return
	}
	for i := range v.live {
		e := &v.live[i]
		path, err := v.a.construct(e.Flow.SrcIP, e.Hdr)
		if err != nil {
			continue // counted on export; live queries skip bad headers
		}
		v.rec = types.Record{
			Flow: e.Flow, Path: path,
			STime: e.STime, ETime: e.ETime,
			Bytes: e.Bytes, Pkts: e.Pkts,
		}
		if p.Match(&v.rec) {
			fn(&v.rec)
		}
	}
}

// PoorTCPFlows implements query.View: every agent has a monitor.
func (v *agentView) PoorTCPFlows(threshold int) ([]types.FlowID, error) {
	return v.a.PoorTCPFlows(threshold), nil
}
