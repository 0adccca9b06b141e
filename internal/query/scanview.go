// ScanView: a query View built from nothing but a raw record scanner.
// The agent's incremental trigger evaluation builds one per
// installed-query run, windowed to the records that arrived since the
// last run (Predicate.MinSeq/MaxSeq), so every op the query language
// supports — getFlows, getCount, conformance sweeps, top-k — evaluates
// over just the delta without each op needing its own watermark logic.
package query

import (
	"context"

	"pathdump/internal/types"
)

// ScanView adapts a record scanner into a View. Scan is required and is
// handed the evaluation's context; Window's MinSeq/MaxSeq sequence bounds
// are folded into every predicate ExecuteContext builds (intersected with
// the predicate's own bounds; Window's other fields are ignored — record
// selection beyond the sequence window belongs to the op); Poor, when
// non-nil, serves getPoorTCPFlows (the TCP monitor is already incremental
// — PoorFlows advances its scan window per call — so delta views pass it
// through).
type ScanView struct {
	Scan   func(ctx context.Context, p Predicate, fn func(*types.Record))
	Window Predicate
	Poor   func(threshold int) []types.FlowID
}

// ScanRecords implements View: the scanner, with the window folded in.
func (v ScanView) ScanRecords(ctx context.Context, p Predicate, fn func(*types.Record)) {
	if v.Window.MinSeq > p.MinSeq {
		p.MinSeq = v.Window.MinSeq
	}
	if v.Window.MaxSeq > 0 && (p.MaxSeq == 0 || v.Window.MaxSeq < p.MaxSeq) {
		p.MaxSeq = v.Window.MaxSeq
	}
	v.Scan(ctx, p, fn)
}

// PoorTCPFlows implements View.
func (v ScanView) PoorTCPFlows(threshold int) ([]types.FlowID, error) {
	if v.Poor == nil {
		return nil, nil
	}
	return v.Poor(threshold), nil
}
