package query

// The reference implementation the single-pass evaluators and the
// stateful merger are property-tested against: the previous design, kept
// verbatim in structure. Every op is composed from the Table-1 calls
// (getFlows, then getPaths/getCount per flow), each of which rescans the
// view and keys its dedup map by a freshly built string; every merge is
// pairwise and rebuilds its dedup state from the whole accumulated
// result. It is slow and allocation-heavy on purpose — it is the oracle,
// not the product.

import (
	"sort"

	"pathdump/internal/types"
)

// refView is the old five-method View: the Table-1 derivations over any
// record scanner.
type refView struct {
	scan func(p Predicate, fn func(*types.Record))
}

func (v refView) Flows(link types.LinkID, tr types.TimeRange) []types.Flow {
	type key struct {
		f types.FlowID
		p string
	}
	seen := make(map[key]bool)
	var out []types.Flow
	v.scan(Predicate{Link: link, Range: tr}, func(rec *types.Record) {
		k := key{rec.Flow, rec.Path.Key()}
		if !seen[k] {
			seen[k] = true
			out = append(out, types.Flow{ID: rec.Flow, Path: rec.Path})
		}
	})
	return out
}

func (v refView) Paths(f types.FlowID, link types.LinkID, tr types.TimeRange) []types.Path {
	seen := make(map[string]bool)
	var out []types.Path
	v.scan(Predicate{Flow: &f, Link: link, Range: tr}, func(rec *types.Record) {
		k := rec.Path.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, rec.Path)
		}
	})
	return out
}

func (v refView) Count(f types.Flow, tr types.TimeRange) (bytes, pkts uint64) {
	v.scan(Predicate{Flow: &f.ID, Link: types.AnyLink, Range: tr}, func(rec *types.Record) {
		if f.Path != nil && !rec.Path.Equal(f.Path) {
			return
		}
		bytes += rec.Bytes
		pkts += rec.Pkts
	})
	return bytes, pkts
}

func (v refView) Duration(f types.Flow, tr types.TimeRange) types.Time {
	var lo, hi types.Time = -1, -1
	v.scan(Predicate{Flow: &f.ID, Link: types.AnyLink, Range: tr}, func(rec *types.Record) {
		if f.Path != nil && !rec.Path.Equal(f.Path) {
			return
		}
		if lo < 0 || rec.STime < lo {
			lo = rec.STime
		}
		if rec.ETime > hi {
			hi = rec.ETime
		}
	})
	if lo < 0 {
		return 0
	}
	return hi - lo
}

// refExecute is the old evaluator.
func refExecute(q Query, v refView) Result {
	tr := q.normalRange()
	res := Result{Op: q.Op}
	switch q.Op {
	case OpFlows:
		res.Flows = v.Flows(q.Link, tr)
	case OpPaths:
		res.Paths = v.Paths(q.Flow, q.Link, tr)
	case OpCount:
		res.Bytes, res.Pkts = v.Count(types.Flow{ID: q.Flow, Path: q.Path}, tr)
	case OpDuration:
		res.Duration = v.Duration(types.Flow{ID: q.Flow, Path: q.Path}, tr)
	case OpFSD:
		res.Hists = refFSD(q, v, tr)
	case OpTopK:
		res.Top = refTopK(q, v, tr)
	case OpConformance:
		res.Violations = refConformance(q, v, tr)
	case OpMatrix:
		res.Matrix = refMatrix(v, tr)
	case OpRecords:
		v.scan(PredicateOf(q), func(rec *types.Record) {
			res.Records = append(res.Records, *rec)
		})
	}
	return res
}

// refFSD is getFlows + getCount per flow, binned.
func refFSD(q Query, v refView, tr types.TimeRange) []LinkHist {
	bin := q.BinBytes
	if bin == 0 {
		bin = 10000
	}
	links := q.Links
	if len(links) == 0 {
		links = []types.LinkID{q.Link}
	}
	out := make([]LinkHist, 0, len(links))
	for _, l := range links {
		h := LinkHist{Link: l, BinBytes: bin}
		for _, fl := range v.Flows(l, tr) {
			bytes, _ := v.Count(fl, tr)
			idx := int(bytes / bin)
			for len(h.Bins) <= idx {
				h.Bins = append(h.Bins, 0)
			}
			h.Bins[idx]++
		}
		out = append(out, h)
	}
	return out
}

// refTopK is getFlows(AnyLink) + one getCount rescan per flow.
func refTopK(q Query, v refView, tr types.TimeRange) []FlowBytes {
	k := q.K
	if k <= 0 {
		k = 1000
	}
	totals := make(map[types.FlowID]*FlowBytes)
	for _, fl := range v.Flows(types.AnyLink, tr) {
		if _, seen := totals[fl.ID]; seen {
			continue
		}
		b, p := v.Count(types.Flow{ID: fl.ID}, tr)
		totals[fl.ID] = &FlowBytes{Flow: fl.ID, Bytes: b, Pkts: p}
	}
	all := make([]FlowBytes, 0, len(totals))
	for _, fb := range totals {
		all = append(all, *fb)
	}
	refSortFlowBytes(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func refConformance(q Query, v refView, tr types.TimeRange) []Violation {
	pol := policy{q.MaxPathLen, q.Avoid, q.Waypoints}
	var out []Violation
	if q.Flow != (types.FlowID{}) {
		for _, p := range v.Paths(q.Flow, types.AnyLink, tr) {
			if pol.violates(p) {
				out = append(out, Violation{Flow: q.Flow, Path: p})
			}
		}
		return out
	}
	for _, fl := range v.Flows(types.AnyLink, tr) {
		if pol.violates(fl.Path) {
			out = append(out, Violation{Flow: fl.ID, Path: fl.Path})
		}
	}
	return out
}

func refMatrix(v refView, tr types.TimeRange) []MatrixCell {
	type key struct{ s, d types.SwitchID }
	cells := make(map[key]uint64)
	v.scan(Predicate{Link: types.AnyLink, Range: tr}, func(rec *types.Record) {
		if len(rec.Path) == 0 {
			return
		}
		cells[key{rec.Path[0], rec.Path[len(rec.Path)-1]}] += rec.Bytes
	})
	out := make([]MatrixCell, 0, len(cells))
	for k, b := range cells {
		out = append(out, MatrixCell{SrcToR: k.s, DstToR: k.d, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SrcToR != out[j].SrcToR {
			return out[i].SrcToR < out[j].SrcToR
		}
		return out[i].DstToR < out[j].DstToR
	})
	return out
}

func refSortFlowBytes(s []FlowBytes) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Bytes != s[j].Bytes {
			return s[i].Bytes > s[j].Bytes
		}
		return flowCompare(s[i].Flow, s[j].Flow) < 0
	})
}

// refMerge is the old pairwise Result.Merge.
func refMerge(r, o *Result, q Query) {
	switch q.Op {
	case OpFlows:
		r.Flows = refMergeFlows(r.Flows, o.Flows)
	case OpPaths:
		r.Paths = refMergePaths(r.Paths, o.Paths)
	case OpCount:
		r.Bytes += o.Bytes
		r.Pkts += o.Pkts
	case OpDuration:
		if o.Duration > r.Duration {
			r.Duration = o.Duration
		}
	case OpPoorTCP:
		r.FlowIDs = refMergeFlowIDs(r.FlowIDs, o.FlowIDs)
	case OpFSD:
		r.Hists = refMergeHists(r.Hists, o.Hists)
	case OpTopK:
		k := q.K
		if k <= 0 {
			k = 1000
		}
		r.Top = refMergeTop(r.Top, o.Top, k)
	case OpConformance:
		r.Violations = refMergeViolations(r.Violations, o.Violations)
	case OpMatrix:
		r.Matrix = refMergeMatrix(r.Matrix, o.Matrix)
	case OpRecords:
		r.Records = append(r.Records, o.Records...)
	}
}

func refMergeFlows(a, b []types.Flow) []types.Flow {
	seen := make(map[string]bool, len(a))
	for _, f := range a {
		seen[f.ID.String()+f.Path.Key()] = true
	}
	for _, f := range b {
		k := f.ID.String() + f.Path.Key()
		if !seen[k] {
			seen[k] = true
			a = append(a, f)
		}
	}
	return a
}

func refMergePaths(a, b []types.Path) []types.Path {
	seen := make(map[string]bool, len(a))
	for _, p := range a {
		seen[p.Key()] = true
	}
	for _, p := range b {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			a = append(a, p)
		}
	}
	return a
}

func refMergeFlowIDs(a, b []types.FlowID) []types.FlowID {
	seen := make(map[types.FlowID]bool, len(a))
	for _, f := range a {
		seen[f] = true
	}
	for _, f := range b {
		if !seen[f] {
			seen[f] = true
			a = append(a, f)
		}
	}
	return a
}

func refMergeHists(a, b []LinkHist) []LinkHist {
	idx := make(map[types.LinkID]int, len(a))
	for i, h := range a {
		idx[h.Link] = i
	}
	for _, h := range b {
		i, ok := idx[h.Link]
		if !ok {
			idx[h.Link] = len(a)
			a = append(a, LinkHist{Link: h.Link, BinBytes: h.BinBytes, Bins: append([]uint64(nil), h.Bins...)})
			continue
		}
		for len(a[i].Bins) < len(h.Bins) {
			a[i].Bins = append(a[i].Bins, 0)
		}
		for j, v := range h.Bins {
			a[i].Bins[j] += v
		}
	}
	return a
}

// refMergeTop sums entries of the same flow across both lists (spray
// subflows can surface one flow twice during intermediate aggregation),
// ranks, and keeps the top k.
func refMergeTop(a, b []FlowBytes, k int) []FlowBytes {
	sum := make(map[types.FlowID]FlowBytes, len(a)+len(b))
	for _, fb := range append(append([]FlowBytes(nil), a...), b...) {
		cur := sum[fb.Flow]
		cur.Flow = fb.Flow
		cur.Bytes += fb.Bytes
		cur.Pkts += fb.Pkts
		sum[fb.Flow] = cur
	}
	out := make([]FlowBytes, 0, len(sum))
	for _, fb := range sum {
		out = append(out, fb)
	}
	refSortFlowBytes(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func refMergeViolations(a, b []Violation) []Violation {
	seen := make(map[string]bool, len(a))
	for _, v := range a {
		seen[v.Flow.String()+v.Path.Key()] = true
	}
	for _, v := range b {
		k := v.Flow.String() + v.Path.Key()
		if !seen[k] {
			seen[k] = true
			a = append(a, v)
		}
	}
	return a
}

func refMergeMatrix(a, b []MatrixCell) []MatrixCell {
	type key struct{ s, d types.SwitchID }
	idx := make(map[key]int, len(a))
	for i, c := range a {
		idx[key{c.SrcToR, c.DstToR}] = i
	}
	for _, c := range b {
		k := key{c.SrcToR, c.DstToR}
		if i, ok := idx[k]; ok {
			a[i].Bytes += c.Bytes
		} else {
			idx[k] = len(a)
			a = append(a, c)
		}
	}
	return a
}
