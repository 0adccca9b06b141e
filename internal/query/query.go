// Package query defines the serialisable query language PathDump's
// controller sends to host agents, plus result merging for distributed
// (multi-level aggregation tree) execution. Each query op answers what a
// composition over the Table-1 host API would, from one scan of the
// host's view; results are mergeable so partial results can be aggregated
// bottom-up through the tree (§3.2).
package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// ErrUnsupported reports that a view cannot serve a query op at all (as
// opposed to serving it with an empty result). A bare TIB store, for
// example, has no TCP monitor behind getPoorTCPFlows.
var ErrUnsupported = errors.New("query: op not supported by this view")

// Op names a query operation.
type Op string

// Supported query operations.
const (
	// OpFlows → getFlows(linkID, timeRange).
	OpFlows Op = "flows"
	// OpPaths → getPaths(flowID, linkID, timeRange).
	OpPaths Op = "paths"
	// OpCount → getCount(Flow, timeRange).
	OpCount Op = "count"
	// OpDuration → getDuration(Flow, timeRange).
	OpDuration Op = "duration"
	// OpPoorTCP → getPoorTCPFlows(threshold).
	OpPoorTCP Op = "poor_tcp"
	// OpFSD builds the per-link flow size distribution used by the
	// load-imbalance diagnosis (§2.3, Fig. 5).
	OpFSD Op = "fsd"
	// OpTopK computes the top-k flows by bytes (§2.3).
	OpTopK Op = "topk"
	// OpConformance checks paths against operator policy (§2.3, §4.1).
	OpConformance Op = "conformance"
	// OpMatrix aggregates a ToR-to-ToR traffic matrix.
	OpMatrix Op = "matrix"
	// OpRecords dumps raw matching records (debug/inspection tool).
	OpRecords Op = "records"
)

// Query is one request to a host agent. Only the fields relevant to the op
// need to be set; the zero TimeRange means "all time".
type Query struct {
	Op    Op              `json:"op"`
	Link  types.LinkID    `json:"link,omitempty"`
	Links []types.LinkID  `json:"links,omitempty"`
	Flow  types.FlowID    `json:"flow,omitempty"`
	Path  types.Path      `json:"path,omitempty"`
	Range types.TimeRange `json:"range,omitempty"`

	// K bounds top-k queries; BinBytes sets FSD histogram bin width.
	K        int    `json:"k,omitempty"`
	BinBytes uint64 `json:"bin_bytes,omitempty"`
	// Threshold is the consecutive-retransmission threshold for poor-TCP
	// queries.
	Threshold int `json:"threshold,omitempty"`

	// Conformance policy: maximum path length (0 disables), switches the
	// path must avoid, and waypoints it must traverse.
	MaxPathLen int              `json:"max_path_len,omitempty"`
	Avoid      []types.SwitchID `json:"avoid,omitempty"`
	Waypoints  []types.SwitchID `json:"waypoints,omitempty"`
}

// normalRange defaults the zero range to all time.
func (q Query) normalRange() types.TimeRange {
	if q.Range == (types.TimeRange{}) {
		return types.AllTime
	}
	return q.Range
}

// LinkHist is one link's flow-size histogram: Bins[i] counts flows whose
// byte count falls in [i·BinBytes, (i+1)·BinBytes).
type LinkHist struct {
	Link     types.LinkID `json:"link"`
	BinBytes uint64       `json:"bin_bytes"`
	Bins     []uint64     `json:"bins"`
}

// FlowBytes pairs a flow with its byte/packet totals (top-k entries).
type FlowBytes struct {
	Flow  types.FlowID `json:"flow"`
	Bytes uint64       `json:"bytes"`
	Pkts  uint64       `json:"pkts"`
}

// Violation is one path-conformance failure.
type Violation struct {
	Flow types.FlowID `json:"flow"`
	Path types.Path   `json:"path"`
}

// MatrixCell is one ⟨source ToR, destination ToR⟩ traffic-matrix entry.
type MatrixCell struct {
	SrcToR types.SwitchID `json:"src_tor"`
	DstToR types.SwitchID `json:"dst_tor"`
	Bytes  uint64         `json:"bytes"`
}

// Result carries a query's (partial) answer. Only the fields relevant to
// the op are populated.
type Result struct {
	Op         Op             `json:"op"`
	Flows      []types.Flow   `json:"flows,omitempty"`
	Paths      []types.Path   `json:"paths,omitempty"`
	Bytes      uint64         `json:"bytes,omitempty"`
	Pkts       uint64         `json:"pkts,omitempty"`
	Duration   types.Time     `json:"duration,omitempty"`
	FlowIDs    []types.FlowID `json:"flow_ids,omitempty"`
	Hists      []LinkHist     `json:"hists,omitempty"`
	Top        []FlowBytes    `json:"top,omitempty"`
	Violations []Violation    `json:"violations,omitempty"`
	Matrix     []MatrixCell   `json:"matrix,omitempty"`
	Records    []types.Record `json:"records,omitempty"`
}

// View is the data a host agent exposes to query execution: a record
// scanner over its TIB (plus not-yet-exported trajectory memory) and the
// active TCP monitor. Every op except poor_tcp is derived by
// ExecuteContext from one pass (fsd: one per link) of ScanRecords; views
// hold no copy of the Table-1 derivations.
type View interface {
	// ScanRecords visits the records matching the predicate in insertion
	// order. Views over an indexed store push the predicate down —
	// segment pruning plus index postings — instead of filtering a full
	// scan. fn must not retain the record pointer. The scan polls ctx
	// (PollCancel) and may stop early once it is cancelled;
	// ExecuteContext then discards whatever the truncated scan produced.
	ScanRecords(ctx context.Context, p Predicate, fn func(*types.Record))
	// PoorTCPFlows is getPoorTCPFlows from the active monitor. A view
	// with no monitor behind it answers an error wrapping ErrUnsupported,
	// so "this view can never answer" is not mistaken for "no poor flows".
	PoorTCPFlows(threshold int) ([]types.FlowID, error)
}

// StoreView adapts a bare TIB store into a View with no TCP monitor —
// used by tests and offline analysis of snapshots.
type StoreView struct{ S *tib.Store }

// PoorTCPFlows implements View: there is no monitor behind a snapshot, so
// the op is unsupported rather than silently empty.
func (v StoreView) PoorTCPFlows(int) ([]types.FlowID, error) {
	return nil, fmt.Errorf("%w: %s needs the active TCP monitor, absent from a bare TIB store", ErrUnsupported, OpPoorTCP)
}

// ScanRecords implements View: the predicate goes straight down into the
// segmented store's scan (whole-segment time pruning, index postings,
// and — when the predicate carries a sequence window — whole-segment
// watermark skipping via ScanSince). The View contract has no error
// channel; a cold-tier read fault leaves the answer partial and counted
// in the store's ColdStats (see tib.Store.Flows). The visitor polls ctx
// between records and stops early once it is cancelled.
func (v StoreView) ScanRecords(ctx context.Context, p Predicate, fn func(*types.Record)) {
	var n int
	_ = v.S.ScanSince(p.MinSeq, p.MaxSeq, p.Flow, p.Link, p.Range, PollCancel(ctx, &n, fn))
}

// ExecuteContext runs a query against a host's view under a context and
// returns its local result — the host side of the controller API. A
// context cancelled before or during evaluation yields the context's
// error and no result (partial scans are discarded, never returned as if
// complete); a view that cannot serve the op yields its ErrUnsupported.
//
// Every op costs one predicate-pushed scan (fsd: one per requested link),
// folded in the visitor: nothing is composed from getFlows + per-flow
// getCount calls that would each rescan and re-key the store.
func ExecuteContext(ctx context.Context, q Query, v View) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{Op: q.Op}, err
	}
	e := evals.Get().(*eval)
	e.res.Op, e.flow = q.Op, q.Flow
	tr := q.normalRange()
	var err error
	switch q.Op {
	case OpFlows:
		v.ScanRecords(ctx, Predicate{Link: q.Link, Range: tr}, e.on.flows)
	case OpPaths:
		v.ScanRecords(ctx, Predicate{Flow: &e.flow, Link: q.Link, Range: tr}, e.on.paths)
	case OpCount:
		e.path = q.Path
		v.ScanRecords(ctx, Predicate{Flow: &e.flow, Link: types.AnyLink, Range: tr}, e.on.count)
	case OpDuration:
		e.path = q.Path
		e.duration(ctx, v, Predicate{Flow: &e.flow, Link: types.AnyLink, Range: tr})
	case OpPoorTCP:
		e.res.FlowIDs, err = v.PoorTCPFlows(q.Threshold)
	case OpFSD:
		e.fsd(ctx, v, q, tr)
	case OpTopK:
		e.topK(ctx, v, Predicate{Link: types.AnyLink, Range: tr}, q.K)
	case OpConformance:
		e.pol = policy{q.MaxPathLen, q.Avoid, q.Waypoints}
		v.ScanRecords(ctx, Predicate{Flow: e.optFlow(), Link: types.AnyLink, Range: tr}, e.on.conformance)
	case OpMatrix:
		e.matrix(ctx, v, Predicate{Link: types.AnyLink, Range: tr})
	case OpRecords:
		e.records(ctx, v, Predicate{Flow: e.optFlow(), Link: q.Link, Range: tr})
	}
	res := e.res
	e.release()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		// The partial result is discarded; recycle its pooled reply
		// buffers instead of leaking them to the collector.
		PutResultBufs(&res)
		return Result{Op: q.Op}, err
	}
	return res, nil
}

// eval is one evaluation's working memory: the result under construction,
// the op's parameters its visitor reads (count/duration path, conformance
// policy, matrix cells), the ⟨flow, path⟩ set behind
// flows/paths/conformance/fsd, and the per-flow totals behind top-k. Each
// op's scan visitor is a method value bound once, when the pool makes the
// eval, so an evaluation passes ScanRecords a func it already has and
// allocates no closure; the sets' maps and slices are recycled with the
// eval, so in steady state a query allocates its answer and nothing else.
// The result's slices are handed to the caller, never retained.
type eval struct {
	res    Result
	flow   types.FlowID                 // the query's flow: predicates point here, not at a heap copy
	path   types.Path                   // count, duration: the query's path (nil = all paths)
	pol    policy                       // conformance
	cells  map[[2]types.SwitchID]uint64 // matrix: ⟨source ToR, destination ToR⟩ → bytes
	pairs  types.FlowSet
	sums   []uint64 // fsd: bytes per pair, by FlowSet ordinal
	totals flowTotals
	lo, hi types.Time // duration: active span so far (lo < 0 = none)
	on     visitors
}

// visitors are an eval's scan visitors, one per op that scans.
type visitors struct {
	flows, paths, count, duration, fsd, topK, conformance, matrix, records func(*types.Record)
}

// optFlow is the flow term of a predicate that filters by the query's
// flow only when it names one (PredicateOf's rule).
func (e *eval) optFlow() *types.FlowID {
	if e.flow == (types.FlowID{}) {
		return nil
	}
	return &e.flow
}

var evals = sync.Pool{New: func() any {
	e := new(eval)
	e.on = visitors{
		flows: e.visitFlows, paths: e.visitPaths, count: e.visitCount, duration: e.visitDuration,
		fsd: e.visitFSD, topK: e.visitTopK, conformance: e.visitConformance,
		matrix: e.visitMatrix, records: e.visitRecords,
	}
	return e
}}

// release resets the eval and returns it to the pool. Like record
// buffers, working sets a monster query grew are dropped, not retained.
func (e *eval) release() {
	if e.pairs.Len() > maxPooled || len(e.totals.list) > maxPooled {
		return
	}
	e.res, e.path, e.pol, e.cells = Result{}, nil, policy{}, nil
	e.pairs.Reset()
	e.sums = e.sums[:0]
	e.totals.reset()
	evals.Put(e)
}

// visitFlows is getFlows: the distinct ⟨flowID, path⟩ pairs among the
// matching records, in first-appearance order.
func (e *eval) visitFlows(rec *types.Record) {
	if _, fresh := e.pairs.Add(rec.Flow, rec.Path); fresh {
		e.res.Flows = append(e.res.Flows, types.Flow{ID: rec.Flow, Path: rec.Path})
	}
}

// visitPaths is getPaths: the distinct paths of the predicate's flow.
func (e *eval) visitPaths(rec *types.Record) {
	if _, fresh := e.pairs.Add(rec.Flow, rec.Path); fresh {
		e.res.Paths = append(e.res.Paths, rec.Path)
	}
}

// visitCount is getCount over a ⟨flowID, path⟩ pair (e.path; nil = all
// paths).
func (e *eval) visitCount(rec *types.Record) {
	if e.path == nil || rec.Path.Equal(e.path) {
		e.res.Bytes += rec.Bytes
		e.res.Pkts += rec.Pkts
	}
}

// duration is getDuration over a ⟨flowID, path⟩ pair (e.path).
func (e *eval) duration(ctx context.Context, v View, p Predicate) {
	e.lo, e.hi = -1, -1
	v.ScanRecords(ctx, p, e.on.duration)
	if e.lo >= 0 {
		e.res.Duration = e.hi - e.lo
	}
}

func (e *eval) visitDuration(rec *types.Record) {
	if e.path != nil && !rec.Path.Equal(e.path) {
		return
	}
	if e.lo < 0 || rec.STime < e.lo {
		e.lo = rec.STime
	}
	if rec.ETime > e.hi {
		e.hi = rec.ETime
	}
}

// fsd builds one histogram per requested link — the §2.3 load-imbalance
// query: per link, one scan sums bytes per ⟨flow, path⟩ through it, and
// each pair's total lands in a bin.
func (e *eval) fsd(ctx context.Context, v View, q Query, tr types.TimeRange) {
	bin := q.BinBytes
	if bin == 0 {
		bin = 10000 // the paper's example binsize
	}
	links := q.Links
	if len(links) == 0 {
		links = []types.LinkID{q.Link}
	}
	e.res.Hists = make([]LinkHist, 0, len(links))
	for _, l := range links {
		e.pairs.Reset()
		e.sums = e.sums[:0]
		v.ScanRecords(ctx, Predicate{Link: l, Range: tr}, e.on.fsd)
		h := LinkHist{Link: l, BinBytes: bin}
		for _, bytes := range e.sums {
			idx := int(bytes / bin)
			for len(h.Bins) <= idx {
				h.Bins = append(h.Bins, 0)
			}
			h.Bins[idx]++
		}
		e.res.Hists = append(e.res.Hists, h)
	}
}

func (e *eval) visitFSD(rec *types.Record) {
	i, fresh := e.pairs.Add(rec.Flow, rec.Path)
	if fresh {
		e.sums = append(e.sums, 0)
	}
	e.sums[i] += rec.Bytes
}

// topK is the §2.3 top-k query: all local flows ranked by bytes. One
// scan accumulates every flow's totals; only the k survivors are copied
// out of the pooled accumulator, into a pooled reply buffer.
func (e *eval) topK(ctx context.Context, v View, p Predicate, k int) {
	if k <= 0 {
		k = 1000 // the paper's example
	}
	v.ScanRecords(ctx, p, e.on.topK)
	top := topFlowBytes(e.totals.list, k)
	e.res.Top = append(GetTopBuf(len(top)), top...)
}

func (e *eval) visitTopK(rec *types.Record) {
	e.totals.add(rec.Flow, rec.Bytes, rec.Pkts)
}

// policy is the conformance part of a Query.
type policy struct {
	maxPathLen int
	avoid      []types.SwitchID
	waypoints  []types.SwitchID
}

// violates applies the conformance policy to one path.
func (pol policy) violates(p types.Path) bool {
	if pol.maxPathLen > 0 && len(p) >= pol.maxPathLen {
		return true
	}
	for _, s := range pol.avoid {
		if p.Contains(s) {
			return true
		}
	}
	for _, w := range pol.waypoints {
		if !p.Contains(w) {
			return true
		}
	}
	return false
}

// Violates reports whether rec, taken alone, breaks q's conformance
// policy — whether ExecuteContext would list it over a view of that one record.
// The event-triggered check runs on the datapath for every record a host
// exports, so it takes no view, evaluation or result and allocates
// nothing.
func Violates(q Query, rec *types.Record) bool {
	p := Predicate{Link: types.AnyLink, Range: q.normalRange()}
	if q.Flow != (types.FlowID{}) {
		p.Flow = &q.Flow
	}
	return p.Match(rec) && policy{q.MaxPathLen, q.Avoid, q.Waypoints}.violates(rec.Path)
}

// visitConformance is the §2.3 path-conformance check: each distinct
// ⟨flow, path⟩ among the matching records is tested once against e.pol.
func (e *eval) visitConformance(rec *types.Record) {
	if _, fresh := e.pairs.Add(rec.Flow, rec.Path); fresh && e.pol.violates(rec.Path) {
		e.res.Violations = append(e.res.Violations, Violation{Flow: rec.Flow, Path: rec.Path})
	}
}

// matrix aggregates bytes between path endpoints (ToR pairs).
func (e *eval) matrix(ctx context.Context, v View, p Predicate) {
	e.cells = make(map[[2]types.SwitchID]uint64)
	v.ScanRecords(ctx, p, e.on.matrix)
	out := make([]MatrixCell, 0, len(e.cells))
	for k, b := range e.cells {
		out = append(out, MatrixCell{SrcToR: k[0], DstToR: k[1], Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SrcToR != out[j].SrcToR {
			return out[i].SrcToR < out[j].SrcToR
		}
		return out[i].DstToR < out[j].DstToR
	})
	e.res.Matrix = out
}

func (e *eval) visitMatrix(rec *types.Record) {
	if len(rec.Path) > 0 {
		e.cells[[2]types.SwitchID{rec.Path[0], rec.Path[len(rec.Path)-1]}] += rec.Bytes
	}
}

// records dumps the matching records. The reply buffer comes from the
// pool: the rpc servers hand it back after encoding, so fan-out traffic
// recycles capacity. A reply with no matches returns its buffer
// immediately and stays nil (the JSON omitempty / wire section-presence
// contract).
func (e *eval) records(ctx context.Context, v View, p Predicate) {
	e.res.Records = GetRecordBuf()
	v.ScanRecords(ctx, p, e.on.records)
	if len(e.res.Records) == 0 {
		PutRecordBuf(e.res.Records)
		e.res.Records = nil
	}
}

func (e *eval) visitRecords(rec *types.Record) {
	e.res.Records = append(e.res.Records, *rec)
}

// flowTotals accumulates per-flow byte/packet totals — top-k's working
// set on the host and at the merge: a dense slice, so the ranked list is
// the slice itself, sorted in place, and an open-addressed index into it
// (power-of-two, at most 3/4 full, linear probing) whose entries carry
// the flow's hash, compared before the slice's FlowID is read. The hash
// is keyed per accumulator (types.FlowKey): the flows come from TIB
// records, whose five-tuples the network supplied.
type flowTotals struct {
	key   types.FlowKey
	index []totalSlot
	list  []FlowBytes
}

// totalSlot is one index entry: a flow's hash and its position in list
// plus one; 0 marks the entry empty.
type totalSlot struct {
	h   uint32
	pos int32
}

// totalsIndexMin is the index's first size, a power of two like every
// size after it.
const totalsIndexMin = 8

// size makes a fresh accumulator room for n flows without regrowing: a
// list of that capacity and an index that holds n at most 3/4 full, both
// drawn from the pools (a merger's caller hands the index back with
// Release, and the published list with PutTopBuf). A zero key is drawn
// here.
func (t *flowTotals) size(n int) {
	if t.key == (types.FlowKey{}) {
		t.key = types.NewFlowKey()
	}
	t.list = GetTopBuf(n)
	slots := totalsIndexMin
	for 4*n > 3*slots {
		slots *= 2
	}
	t.index = indexBufs.Get(slots)[:slots]
}

func (t *flowTotals) add(f types.FlowID, bytes, pkts uint64) {
	if t.index == nil {
		t.size(0)
	}
	h := uint32(t.key.Hash(f))
	mask := len(t.index) - 1
	i := int(h) & mask
	for ; t.index[i].pos != 0; i = (i + 1) & mask {
		if e := t.index[i]; e.h == h && t.list[e.pos-1].Flow == f {
			t.list[e.pos-1].Bytes += bytes
			t.list[e.pos-1].Pkts += pkts
			return
		}
	}
	t.list = append(t.list, FlowBytes{Flow: f, Bytes: bytes, Pkts: pkts})
	t.index[i] = totalSlot{h: h, pos: int32(len(t.list))}
	if 4*len(t.list) > 3*len(t.index) {
		t.grow()
	}
}

// grow doubles the index, placing every entry by the hash it holds.
func (t *flowTotals) grow() {
	old := t.index
	t.index = indexBufs.Get(2 * len(old))[:2*len(old)]
	for _, e := range old {
		if e.pos != 0 {
			t.place(e)
		}
	}
	indexBufs.Put(old)
}

// place puts e at the first empty position of its probe run.
func (t *flowTotals) place(e totalSlot) {
	mask := len(t.index) - 1
	i := int(e.h) & mask
	for t.index[i].pos != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = e
}

// reindex rebuilds the index over list as it now stands — after a
// ranking reordered it or a trim cut it short.
func (t *flowTotals) reindex() {
	clear(t.index)
	for i := range t.list {
		t.place(totalSlot{h: uint32(t.key.Hash(t.list[i].Flow)), pos: int32(i + 1)})
	}
}

func (t *flowTotals) reset() {
	clear(t.index)
	t.list = t.list[:0]
}

// rankFlowBytes is the top-k ranking, a strict total order over distinct
// flows: more bytes first, ties by flowCompare.
func rankFlowBytes(a, b FlowBytes) int {
	if a.Bytes != b.Bytes {
		return cmp.Compare(b.Bytes, a.Bytes)
	}
	return flowCompare(a.Flow, b.Flow)
}

// topFlowBytes moves the k first of s under rankFlowBytes (k ≥ 1) to its
// front, ranked, and returns them; the rest of s is left in no particular
// order. It selects instead of sorting — s[:k] is kept as a heap with the
// last-ranked survivor at the root, so a total that does not make the cut
// costs one comparison — and ranks only the survivors: the answer is,
// element for element, the front of the full sort.
func topFlowBytes(s []FlowBytes, k int) []FlowBytes {
	if k < len(s) {
		top := s[:k]
		down := func(i int) {
			for c := 2*i + 1; c < k; i, c = c, 2*c+1 {
				if c+1 < k && rankFlowBytes(top[c+1], top[c]) > 0 {
					c++
				}
				if rankFlowBytes(top[c], top[i]) <= 0 {
					return
				}
				top[i], top[c] = top[c], top[i]
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			down(i)
		}
		for i := k; i < len(s); i++ {
			if rankFlowBytes(s[i], top[0]) < 0 {
				s[i], top[0] = top[0], s[i]
				down(0)
			}
		}
		s = top
	}
	slices.SortFunc(s, rankFlowBytes)
	return s
}

// flowCompare is the deterministic tie-break order for equal byte counts:
// field-wise over the 5-tuple, never formatting strings per comparison
// (ties are common in degenerate inputs, and the tie-break must not
// dominate the sort).
func flowCompare(a, b types.FlowID) int {
	return cmp.Or(
		cmp.Compare(a.SrcIP, b.SrcIP),
		cmp.Compare(a.SrcPort, b.SrcPort),
		cmp.Compare(a.DstIP, b.DstIP),
		cmp.Compare(a.DstPort, b.DstPort),
		cmp.Compare(a.Proto, b.Proto),
	)
}
