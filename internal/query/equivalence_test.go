package query

// Property tests: the single-pass evaluators and the stateful merger
// against the composed reference in reference_test.go. Output must
// match element for element, order included.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// eqPaths: the first two cross link 10-20 by different routes, so a flow
// that alternates between them has two paths through the same link.
var eqPaths = []types.Path{
	{1, 10, 20}, {2, 10, 20}, {1, 11, 20}, {3, 12, 21, 30}, {1, 10, 21},
}

func eqFlow(i int) types.FlowID {
	return types.FlowID{SrcIP: types.IP(100 + i), DstIP: 9, SrcPort: uint16(5000 + i), DstPort: 80, Proto: types.ProtoTCP}
}

const eqFlows = 30

// eqRecord draws one record: time advances with i (so early segments
// are old enough to spill) with enough jitter and length that records
// straddle any range edge a query picks.
func eqRecord(rng *rand.Rand, i int) types.Record {
	f := rng.Intn(eqFlows)
	p := eqPaths[rng.Intn(len(eqPaths))]
	if f%3 == 0 {
		p = eqPaths[rng.Intn(2)] // two paths, one link
	}
	st := types.Time(i*10 + rng.Intn(40))
	return types.Record{
		Flow: eqFlow(f), Path: p,
		STime: st, ETime: st + types.Time(rng.Intn(300)),
		Bytes: uint64(rng.Intn(4000)), Pkts: uint64(1 + rng.Intn(9)),
	}
}

// eqStore builds a 4-shard store of n records whose oldest sealed
// segments are cold, newer ones sealed and resident, the newest active.
func eqStore(t *testing.T, rng *rand.Rand, n int) *tib.Store {
	t.Helper()
	s := tib.NewStoreConfig(tib.Config{Shards: 4, SegmentRecords: 16, ColdDir: t.TempDir()})
	for i := 0; i < n; i++ {
		s.Add(eqRecord(rng, i))
	}
	if _, _, err := s.SpillBefore(types.Time(n * 10 / 3)); err != nil {
		t.Fatal(err)
	}
	if st := s.ColdStats(); n >= 200 && (st.Segments == 0 || s.SealedSegments() <= st.Segments) {
		t.Fatalf("store shape: %d cold of %d sealed segments — want some of each", st.Segments, s.SealedSegments())
	}
	return s
}

// eqQuery draws a query of the given op over a store spanning [0, span].
func eqQuery(rng *rand.Rand, op Op, span int) Query {
	q := Query{Op: op}
	switch rng.Intn(4) {
	case 0: // all time
	case 1: // an edge on a multiple of ten, where record times cluster
		a := types.Time(rng.Intn(span/10+1) * 10)
		q.Range = types.TimeRange{From: a, To: a + types.Time(rng.Intn(span/2+1))}
	default:
		a := types.Time(rng.Intn(span + 1))
		q.Range = types.TimeRange{From: a, To: a + types.Time(rng.Intn(span+1))}
	}
	links := []types.LinkID{
		types.AnyLink, {A: 10, B: 20}, {A: 1, B: 10}, {A: types.WildcardSwitch, B: 20},
		{A: 12, B: types.WildcardSwitch}, {A: 7, B: 8},
	}
	q.Link = links[rng.Intn(len(links))]
	if op == OpFSD && rng.Intn(2) == 0 {
		for i := 0; i <= rng.Intn(3); i++ {
			q.Links = append(q.Links, links[rng.Intn(len(links))])
		}
	}
	if op == OpPaths || op == OpCount || op == OpDuration || rng.Intn(2) == 0 {
		q.Flow = eqFlow(rng.Intn(eqFlows + 2)) // the last two exist nowhere
	}
	if (op == OpCount || op == OpDuration) && rng.Intn(2) == 0 {
		q.Path = eqPaths[rng.Intn(len(eqPaths))]
	}
	q.K = []int{0, 1, 5, 1000}[rng.Intn(4)]
	q.BinBytes = []uint64{0, 500, 3000}[rng.Intn(3)]
	switch rng.Intn(3) {
	case 0:
		q.MaxPathLen = 4
	case 1:
		q.Avoid = []types.SwitchID{10}
	default:
		q.Waypoints = []types.SwitchID{20}
	}
	return q
}

var eqOps = []Op{OpFlows, OpPaths, OpCount, OpDuration, OpFSD, OpTopK, OpConformance, OpMatrix, OpRecords}

// scanOf is v's scan under a context that never ends, for the reference.
func scanOf(v View) func(Predicate, func(*types.Record)) {
	return func(p Predicate, fn func(*types.Record)) { v.ScanRecords(context.Background(), p, fn) }
}

// checkEvaluators runs random queries of every op against the view and
// against the reference composed over the same scanner.
func checkEvaluators(t *testing.T, rng *rand.Rand, name string, v View, span, rounds int) {
	t.Helper()
	ref := refView{scan: scanOf(v)}
	for round := 0; round < rounds; round++ {
		for _, op := range eqOps {
			q := eqQuery(rng, op, span)
			got, want := execute(t, q, v), refExecute(q, ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %+v\n got %+v\nwant %+v", name, q, got, want)
			}
		}
	}
}

func TestEvaluatorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 600
	s := eqStore(t, rng, n)
	store := StoreView{S: s}
	checkEvaluators(t, rng, "store", store, n*10, 40)

	// The incremental-trigger case: a sequence window over the store.
	for _, w := range [][2]uint64{{0, 50}, {200, 260}, {n - 20, n}, {n - 1, n}, {n, n}} {
		delta := ScanView{Scan: store.ScanRecords, Window: Predicate{MinSeq: w[0], MaxSeq: w[1]}}
		checkEvaluators(t, rng, fmt.Sprintf("window (%d,%d]", w[0], w[1]), delta, n*10, 10)
	}

	// The agent's shape: store records, then live (unexported) records
	// that carry no sequence and are filtered record by record.
	live := make([]types.Record, 25)
	for i := range live {
		live[i] = eqRecord(rng, n+i)
	}
	withLive := ScanView{Scan: func(ctx context.Context, p Predicate, fn func(*types.Record)) {
		store.ScanRecords(ctx, p, fn)
		for i := range live {
			if p.Match(&live[i]) {
				fn(&live[i])
			}
		}
	}}
	checkEvaluators(t, rng, "store + live", withLive, (n+25)*10, 30)

	// The event-triggered shape: one just-exported record.
	for i := 0; i < 20; i++ {
		rec := eqRecord(rng, rng.Intn(n))
		one := ScanView{Scan: func(_ context.Context, p Predicate, fn func(*types.Record)) {
			if p.Match(&rec) {
				fn(&rec)
			}
		}}
		checkEvaluators(t, rng, "one record", one, n*10, 3)
		// Violates is that evaluation's verdict without the evaluation.
		for j := 0; j < 20; j++ {
			q := eqQuery(rng, OpConformance, n*10)
			q.Flow = []types.FlowID{{}, rec.Flow, q.Flow}[j%3]
			want := len(refExecute(q, refView{scan: scanOf(one)}).Violations) == 1
			if got := Violates(q, &rec); got != want {
				t.Fatalf("Violates(%+v, %+v) = %v, the reference evaluation says %v", q, rec, got, want)
			}
		}
	}

	// An empty store.
	checkEvaluators(t, rng, "empty", StoreView{S: tib.NewStore()}, 100, 3)
}

// TestStoreHostAPIMatchesReference: tib.Store's own Flows/Paths/Count
// (the Table-1 host API, kept exported) against the reference derivations
// over the store's scan.
func TestStoreHostAPIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n = 400
	s := eqStore(t, rng, n)
	ref := refView{scan: scanOf(StoreView{S: s})}
	for round := 0; round < 60; round++ {
		q := eqQuery(rng, OpCount, n*10)
		tr := q.normalRange()
		if got, want := s.Flows(q.Link, tr), ref.Flows(q.Link, tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("Flows(%v, %v): got %v want %v", q.Link, tr, got, want)
		}
		if got, want := s.Paths(q.Flow, q.Link, tr), ref.Paths(q.Flow, q.Link, tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("Paths(%v, %v, %v): got %v want %v", q.Flow, q.Link, tr, got, want)
		}
		f := types.Flow{ID: q.Flow, Path: q.Path}
		gb, gp := s.Count(f, tr)
		wb, wp := ref.Count(f, tr)
		if gb != wb || gp != wp {
			t.Fatalf("Count(%v, %v) differs from the reference", f, tr)
		}
	}
}

// eqChild draws one child's partial result for op. Flows, links and ToR
// pairs come from small pools, so children repeat each other — including
// the spray case, one flow in several children's top-k lists.
func eqChild(rng *rand.Rand, op Op) Result {
	r := Result{Op: op}
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		f := eqFlow(rng.Intn(eqFlows))
		p := eqPaths[rng.Intn(len(eqPaths))]
		switch op {
		case OpFlows:
			r.Flows = append(r.Flows, types.Flow{ID: f, Path: p})
		case OpPaths:
			r.Paths = append(r.Paths, p)
		case OpCount:
			r.Bytes += uint64(rng.Intn(1000))
			r.Pkts++
		case OpDuration:
			r.Duration = max(r.Duration, types.Time(rng.Intn(1000)))
		case OpPoorTCP:
			r.FlowIDs = append(r.FlowIDs, f)
		case OpFSD:
			h := LinkHist{Link: types.LinkID{A: types.SwitchID(rng.Intn(4)), B: 20}, BinBytes: 500}
			for j := rng.Intn(5); j > 0; j-- {
				h.Bins = append(h.Bins, uint64(rng.Intn(6)))
			}
			r.Hists = append(r.Hists, h)
		case OpTopK:
			r.Top = append(r.Top, FlowBytes{Flow: f, Bytes: uint64(rng.Intn(50)) * 100, Pkts: uint64(rng.Intn(9))})
		case OpConformance:
			r.Violations = append(r.Violations, Violation{Flow: f, Path: p})
		case OpMatrix:
			r.Matrix = append(r.Matrix, MatrixCell{SrcToR: types.SwitchID(rng.Intn(3)), DstToR: types.SwitchID(rng.Intn(3)), Bytes: uint64(rng.Intn(900))})
		case OpRecords:
			r.Records = append(r.Records, types.Record{Flow: f, Path: p, STime: types.Time(i), ETime: types.Time(i + 5), Bytes: 7, Pkts: 1})
		}
	}
	return r
}

// cloneResult copies every slice of r the merge may touch (paths, which
// are immutable and legitimately shared, excepted).
func cloneResult(r *Result) Result {
	c := *r
	c.Flows = slices.Clone(r.Flows)
	c.Paths = slices.Clone(r.Paths)
	c.FlowIDs = slices.Clone(r.FlowIDs)
	c.Hists = slices.Clone(r.Hists)
	for i := range c.Hists {
		c.Hists[i].Bins = slices.Clone(c.Hists[i].Bins)
	}
	c.Top = slices.Clone(r.Top)
	c.Violations = slices.Clone(r.Violations)
	c.Matrix = slices.Clone(r.Matrix)
	c.Records = slices.Clone(r.Records)
	return c
}

// scribble overwrites every element of r's slices, as recycling a
// child's pooled memory would.
func scribble(r *Result) {
	clear(r.Flows)
	clear(r.Paths)
	clear(r.FlowIDs)
	for i := range r.Hists {
		clear(r.Hists[i].Bins)
	}
	clear(r.Hists)
	clear(r.Top)
	clear(r.Violations)
	clear(r.Matrix)
	clear(r.Records)
}

var eqMergeOps = append([]Op{OpPoorTCP}, eqOps...)

// TestStreamMergerMatchesReferenceFold: for every op, a base plus
// children — some nil (dropped), fed in index order — merged by one
// stateful merger equals the left fold of the reference pairwise
// merge in index order; the children come through unmodified, and the
// merged result shares no slice with them.
func TestStreamMergerMatchesReferenceFold(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, op := range eqMergeOps {
		for trial := 0; trial < 60; trial++ {
			q := Query{Op: op, K: []int{0, 3, 10}[rng.Intn(3)]}
			n := 1 + rng.Intn(10)
			kids := make([]*Result, n)
			for i := range kids {
				if rng.Intn(5) > 0 {
					c := eqChild(rng, op)
					kids[i] = &c
				}
			}
			var base Result
			if rng.Intn(2) == 0 {
				base = eqChild(rng, op) // the aggregating host's own result
			}

			want := cloneResult(&base)
			want.Op = op
			for _, kid := range kids {
				if kid != nil {
					c := cloneResult(kid)
					refMerge(&want, &c, q)
				}
			}

			before := make([]Result, n)
			for i, kid := range kids {
				if kid != nil {
					before[i] = cloneResult(kid)
				}
			}
			got := cloneResult(&base)
			m := NewStreamMerger(q, &got, n)
			for i, kid := range kids {
				m.Add(i, kid)
			}
			if !m.Done() {
				t.Fatalf("%s: merger not done", op)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d (k=%d):\n got %+v\nwant %+v", op, trial, q.K, got, want)
			}
			for i, kid := range kids {
				if kid != nil && !reflect.DeepEqual(*kid, before[i]) {
					t.Fatalf("%s: the merge modified child %d", op, i)
				}
			}
			for _, kid := range kids {
				if kid != nil {
					scribble(kid)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the merged result aliases a child's memory", op)
			}
		}
	}
}

// eqTree merges results bottom-up in the controller's tree shape —
// fanouts[0] contiguous groups, each group's first result the merge base
// for the rest, recursively — with merge as the fold.
func eqTree(res []Result, fanouts []int, merge func(dst *Result, kids []Result)) []Result {
	if len(fanouts) == 0 || len(res) == 0 {
		return res
	}
	n := min(fanouts[0], len(res))
	var out []Result
	for g := 0; g < n; g++ {
		group := res[g*len(res)/n : (g+1)*len(res)/n]
		node := cloneResult(&group[0])
		merge(&node, eqTree(group[1:], fanouts[1:], merge))
		out = append(out, node)
	}
	return out
}

// TestStreamMergerMatchesReferenceInTrees: the same equivalence when the
// merge runs level by level through an aggregation tree — where top-k's
// trim-per-fold makes the answer depend on the shape, so the merger must
// reproduce the reference's shape-dependent answer, not just a top k.
func TestStreamMergerMatchesReferenceInTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][]int{{1}, {4}, {2, 3}, {4, 4, 2}, {40}}
	for _, op := range eqMergeOps {
		for trial := 0; trial < 12; trial++ {
			q := Query{Op: op, K: []int{0, 3, 10}[rng.Intn(3)]}
			leaves := make([]Result, 1+rng.Intn(40))
			for i := range leaves {
				leaves[i] = eqChild(rng, op)
			}
			shape := shapes[rng.Intn(len(shapes))]
			top := func(merge func(dst *Result, kids []Result)) Result {
				root := Result{Op: op}
				merge(&root, eqTree(leaves, shape, merge))
				return root
			}
			want := top(func(dst *Result, kids []Result) {
				for i := range kids {
					c := cloneResult(&kids[i])
					refMerge(dst, &c, q)
				}
			})
			got := top(func(dst *Result, kids []Result) {
				m := NewStreamMerger(q, dst, len(kids))
				for i := range kids {
					m.Add(i, &kids[i])
				}
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d shape %v (k=%d):\n got %+v\nwant %+v", op, trial, shape, q.K, got, want)
			}
		}
	}
}
