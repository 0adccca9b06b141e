// Predicate pushdown: the record-selection part of a query — flow, link
// and time range together — expressed as one value that views push down
// into their storage engine instead of filtering a full scan record by
// record. The segmented TIB store answers a Predicate by pruning whole
// segments on time bounds and walking flow/link index postings inside the
// survivors (tib.Store.ScanSince); views without such a store fall back
// to per-record Match.
package query

import "pathdump/internal/types"

// Predicate selects TIB records: a record matches when it belongs to
// Flow (nil = any flow), traverses Link (wildcards per LinkID semantics,
// types.AnyLink = any link), and its active interval intersects Range.
// Range is taken literally — callers normalise the zero "all time" range
// (Query.normalRange) before building a Predicate.
//
// MinSeq/MaxSeq additionally bound the records by global arrival
// sequence: only records whose sequence lies in (MinSeq, MaxSeq] match
// (0 = unbounded on that side). This is the incremental-evaluation
// window behind installed-query watermarks: views over a sequenced store
// push it down into tib.Store.ScanSince, skipping whole sealed segments
// below the watermark. Views whose records carry no sequence numbers (a
// single just-exported record, the agent's live trajectory memory)
// cannot honour it in Match and treat every record as in-window — such
// records are by construction new.
type Predicate struct {
	Flow   *types.FlowID   `json:"flow,omitempty"`
	Link   types.LinkID    `json:"link"`
	Range  types.TimeRange `json:"range"`
	MinSeq uint64          `json:"min_seq,omitempty"`
	MaxSeq uint64          `json:"max_seq,omitempty"`
}

// PredicateOf extracts the record-selection predicate from a query: its
// flow (when set), link and normalised time range.
func PredicateOf(q Query) Predicate {
	return Predicate{Flow: flowPtr(q.Flow), Link: q.Link, Range: q.normalRange()}
}

// flowPtr maps the zero flow ID (no flow filter) to nil.
func flowPtr(f types.FlowID) *types.FlowID {
	if f == (types.FlowID{}) {
		return nil
	}
	return &f
}

// Match reports whether one record satisfies the predicate — the
// fallback evaluation for views that cannot push the predicate into an
// index walk.
func (p Predicate) Match(rec *types.Record) bool {
	if p.Flow != nil && rec.Flow != *p.Flow {
		return false
	}
	if !rec.Overlaps(p.Range) {
		return false
	}
	if p.Link != types.AnyLink && !rec.Path.ContainsLink(p.Link) {
		return false
	}
	return true
}
