package agent

import (
	"context"

	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// agentView is the host's queryable state: the TIB store plus the
// per-path flow records still in the trajectory memory (the paper's IPC
// lookup that lets queries see data not yet exported, §3.2). It is a
// record scanner and the TCP monitor, nothing else — query.Execute
// derives every op from ScanRecords.
//
// ctx, when non-nil, makes the evaluation loop cancellation-aware: scans
// over the sharded TIB poll the context every query.CancelCheckEvery
// records of the cross-shard merge and stop early once it is cancelled,
// so a caller that hung up (or a controller deadline that fired) does not
// pin this host on a full scan.
type agentView struct {
	a *Agent
	// live is the trajectory memory as of the view's creation — before
	// any store scan, so a record exported mid-query is seen at most
	// twice, never missed. Headers are resolved to paths only for the
	// entries a scan's predicate admits.
	live   []tib.MemEntry
	ctx    context.Context
	polled int // records visited, for the cancellation poll
}

// view binds the agent's queryable state to ctx (nil: never cancelled),
// once: the view goes to query.Execute as it is.
func (a *Agent) view(ctx context.Context) *agentView {
	return &agentView{a: a, live: a.Mem.Live(), ctx: ctx}
}

// ScanRecords implements query.View over store + live records: the
// predicate — including its arrival-sequence window, the incremental
// trigger path — is pushed down into the segmented store (whole-segment
// time and watermark pruning, index postings), and the handful of
// not-yet-exported live records follow, filtered by Predicate.Match
// (they carry no sequence and count as in-window — by construction new).
// With a context attached, the TIB scan aborts between merged shard
// records once the context is cancelled.
func (v *agentView) ScanRecords(p query.Predicate, fn func(*types.Record)) {
	// The query.View contract has no error channel: a cold-tier read
	// fault yields the resident portion of the answer, with the fault
	// counted in the store's ColdStats (see tib.Store.Flows for the
	// contract).
	_ = v.a.Store.ScanSince(p.MinSeq, p.MaxSeq, p.Flow, p.Link, p.Range, query.PollCancel(v.ctx, &v.polled, fn))
	if v.ctx != nil && v.ctx.Err() != nil {
		return
	}
	// The flow and time terms need no path, so they are tested before
	// the header is resolved; Match then applies the link term.
	var rec *types.Record // one per scan, made when the first entry gets this far
	for i := range v.live {
		e := &v.live[i]
		if (p.Flow != nil && e.Flow != *p.Flow) || !p.Range.Overlaps(e.STime, e.ETime) {
			continue
		}
		path, err := v.a.construct(e.Flow.SrcIP, e.Hdr)
		if err != nil {
			continue // counted on export; live queries skip bad headers
		}
		if rec == nil {
			rec = new(types.Record)
		}
		*rec = types.Record{
			Flow: e.Flow, Path: path,
			STime: e.STime, ETime: e.ETime,
			Bytes: e.Bytes, Pkts: e.Pkts,
		}
		if p.Match(rec) {
			fn(rec)
		}
	}
}

// PoorTCPFlows implements query.View.
func (v *agentView) PoorTCPFlows(threshold int) []types.FlowID {
	return v.a.PoorTCPFlows(threshold)
}

// recordView exposes a single just-exported record to event-triggered
// queries.
type recordView struct {
	rec *types.Record
}

// PoorTCPFlows implements query.View.
func (v recordView) PoorTCPFlows(int) []types.FlowID { return nil }

// ScanRecords implements query.View.
func (v recordView) ScanRecords(p query.Predicate, fn func(*types.Record)) {
	if p.Match(v.rec) {
		fn(v.rec)
	}
}
