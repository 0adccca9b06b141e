package bench

import (
	"fmt"
	"sort"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// oracle answers queries by a linear filter over the flat list of
// records the generator caused — no index, no segments, no merge. It is
// the reference the merged answers are compared with.
type oracle struct {
	recs []types.Record
}

func newOracle(truth [][]types.Record) *oracle {
	o := &oracle{}
	for _, rs := range truth {
		o.recs = append(o.recs, rs...)
	}
	return o
}

func (o *oracle) match(q query.Query, fn func(*types.Record)) {
	p := query.PredicateOf(q)
	for i := range o.recs {
		if p.Match(&o.recs[i]) {
			fn(&o.recs[i])
		}
	}
}

func flowLess(a, b types.FlowID) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// answer computes the reference result of one query.
func (o *oracle) answer(q query.Query) query.Result {
	res := query.Result{Op: q.Op}
	switch q.Op {
	case query.OpTopK:
		sum := make(map[types.FlowID]*query.FlowBytes)
		q.Link = types.AnyLink
		o.match(q, func(r *types.Record) {
			fb := sum[r.Flow]
			if fb == nil {
				fb = &query.FlowBytes{Flow: r.Flow}
				sum[r.Flow] = fb
			}
			fb.Bytes += r.Bytes
			fb.Pkts += r.Pkts
		})
		for _, fb := range sum {
			res.Top = append(res.Top, *fb)
		}
		sort.Slice(res.Top, func(i, j int) bool {
			if res.Top[i].Bytes != res.Top[j].Bytes {
				return res.Top[i].Bytes > res.Top[j].Bytes
			}
			return flowLess(res.Top[i].Flow, res.Top[j].Flow)
		})
		if len(res.Top) > q.K {
			res.Top = res.Top[:q.K]
		}
	case query.OpFlows:
		seen := make(map[string]bool)
		o.match(q, func(r *types.Record) {
			if k := flowKey(r.Flow, r.Path); !seen[k] {
				seen[k] = true
				res.Flows = append(res.Flows, types.Flow{ID: r.Flow, Path: r.Path})
			}
		})
	case query.OpPaths:
		seen := make(map[string]bool)
		o.match(q, func(r *types.Record) {
			if k := r.Path.Key(); !seen[k] {
				seen[k] = true
				res.Paths = append(res.Paths, r.Path)
			}
		})
	case query.OpCount:
		q.Link = types.AnyLink
		o.match(q, func(r *types.Record) {
			res.Bytes += r.Bytes
			res.Pkts += r.Pkts
		})
	case query.OpRecords:
		o.match(q, func(r *types.Record) { res.Records = append(res.Records, *r) })
	}
	return res
}

func flowKey(f types.FlowID, p types.Path) string { return f.String() + "|" + p.Key() }

func recKey(r *types.Record) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d", flowKey(r.Flow, r.Path), r.STime, r.ETime, r.Bytes, r.Pkts)
}

// canon renders a result as a sorted list of strings, so that two
// answers are equal exactly when their canonical forms are: top-k keeps
// its order (rank is part of the answer), the set-valued ops are sorted.
func canon(r *query.Result) []string {
	var out []string
	switch r.Op {
	case query.OpTopK:
		for i, fb := range r.Top {
			out = append(out, fmt.Sprintf("%d %s %d %d", i, fb.Flow, fb.Bytes, fb.Pkts))
		}
		return out
	case query.OpFlows:
		for _, f := range r.Flows {
			out = append(out, flowKey(f.ID, f.Path))
		}
	case query.OpPaths:
		for _, p := range r.Paths {
			out = append(out, p.Key())
		}
	case query.OpCount:
		return []string{fmt.Sprintf("%d %d", r.Bytes, r.Pkts)}
	case query.OpRecords:
		for i := range r.Records {
			out = append(out, recKey(&r.Records[i]))
		}
	}
	sort.Strings(out)
	return out
}

// sig is the cheap per-op signature of a result: element count, a byte
// sum and, for top-k, the leader. The window compares it on every op;
// the full canonical comparison runs once per query class in verify.
type sig struct {
	n     int
	bytes uint64
	first types.FlowID
}

func sigOf(r *query.Result) sig {
	var s sig
	switch r.Op {
	case query.OpTopK:
		s.n = len(r.Top)
		for _, fb := range r.Top {
			s.bytes += fb.Bytes
		}
		if s.n > 0 {
			s.first = r.Top[0].Flow
		}
	case query.OpFlows:
		s.n = len(r.Flows)
	case query.OpPaths:
		s.n = len(r.Paths)
	case query.OpCount:
		s.n, s.bytes = int(r.Pkts), r.Bytes
	case query.OpRecords:
		s.n = len(r.Records)
		for i := range r.Records {
			s.bytes += r.Records[i].Bytes
		}
	}
	return s
}

// equal compares a merged answer with the oracle's in full.
func equal(got, want *query.Result) error {
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		return fmt.Errorf("%s: got %d items, oracle has %d", got.Op, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s: item %d is %q, oracle has %q", got.Op, i, g[i], w[i])
		}
	}
	return nil
}

// digestOf folds an answer's canonical form into a running digest.
func digestOf(h uint64, r *query.Result) uint64 {
	for _, s := range canon(r) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
