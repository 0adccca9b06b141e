package query

import (
	"context"
	"math/rand"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

func predFlow(n int) types.FlowID {
	return types.FlowID{SrcIP: types.IP(n), DstIP: 7, SrcPort: uint16(n), DstPort: 80, Proto: 6}
}

func TestPredicateMatch(t *testing.T) {
	f := predFlow(3)
	rec := types.Record{Flow: f, Path: types.Path{1, 2, 3}, STime: 10, ETime: 20, Bytes: 5, Pkts: 1}
	other := predFlow(4)
	cases := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"wildcard everything", Predicate{Link: types.AnyLink, Range: types.AllTime}, true},
		{"matching flow", Predicate{Flow: &f, Link: types.AnyLink, Range: types.AllTime}, true},
		{"wrong flow", Predicate{Flow: &other, Link: types.AnyLink, Range: types.AllTime}, false},
		{"matching link", Predicate{Link: types.LinkID{A: 2, B: 3}, Range: types.AllTime}, true},
		{"reverse link", Predicate{Link: types.LinkID{A: 3, B: 2}, Range: types.AllTime}, false},
		{"half wildcard link", Predicate{Link: types.LinkID{A: types.WildcardSwitch, B: 2}, Range: types.AllTime}, true},
		{"overlapping range", Predicate{Link: types.AnyLink, Range: types.TimeRange{From: 15, To: 30}}, true},
		{"disjoint range", Predicate{Link: types.AnyLink, Range: types.TimeRange{From: 21, To: 30}}, false},
		{"all terms", Predicate{Flow: &f, Link: types.LinkID{A: 1, B: 2}, Range: types.TimeRange{From: 0, To: 12}}, true},
	}
	for _, tc := range cases {
		if got := tc.p.Match(&rec); got != tc.want {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPredicateOf: the query's flow/link/range map onto the predicate,
// with the zero flow meaning "any" and the zero range normalised.
func TestPredicateOf(t *testing.T) {
	p := PredicateOf(Query{Op: OpRecords, Link: types.AnyLink})
	if p.Flow != nil || p.Range != types.AllTime {
		t.Errorf("zero query predicate = %+v, want any-flow all-time", p)
	}
	f := predFlow(1)
	p = PredicateOf(Query{Op: OpRecords, Flow: f, Link: types.LinkID{A: 1, B: 2}, Range: types.TimeRange{From: 5, To: 9}})
	if p.Flow == nil || *p.Flow != f || p.Link != (types.LinkID{A: 1, B: 2}) || p.Range != (types.TimeRange{From: 5, To: 9}) {
		t.Errorf("predicate = %+v", p)
	}
}

// TestRecordsOpFlowPushdown: OpRecords with a flow set walks that flow's
// postings instead of dumping every record — new capability the
// predicate pushdown enables.
func TestRecordsOpFlowPushdown(t *testing.T) {
	s := tib.NewStoreConfig(tib.Config{SegmentRecords: 8})
	f := predFlow(1)
	for i := 0; i < 100; i++ {
		fl := predFlow(i % 10)
		s.Add(types.Record{Flow: fl, Path: types.Path{1, 2, 3}, STime: types.Time(i), ETime: types.Time(i + 1), Bytes: uint64(i), Pkts: 1})
	}
	res := execute(t, Query{Op: OpRecords, Flow: f, Link: types.AnyLink}, StoreView{S: s})
	if len(res.Records) != 10 {
		t.Fatalf("flow-filtered records = %d, want 10", len(res.Records))
	}
	for _, r := range res.Records {
		if r.Flow != f {
			t.Fatalf("alien record %v", r)
		}
	}
	// Without a flow the op still dumps everything in range.
	res = execute(t, Query{Op: OpRecords, Link: types.AnyLink, Range: types.TimeRange{From: 0, To: 9}}, StoreView{S: s})
	if len(res.Records) != 10 {
		t.Fatalf("windowed records = %d, want 10", len(res.Records))
	}
}

// TestScanRecordsPushdownEquivalence: for arbitrary predicates, the
// pushed-down scan must visit exactly the records a full scan plus
// Predicate.Match would, in the same order.
func TestScanRecordsPushdownEquivalence(t *testing.T) {
	s := tib.NewStoreConfig(tib.Config{SegmentRecords: 16, SegmentSpan: 25})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 800; i++ {
		st := types.Time(rng.Intn(200))
		s.Add(types.Record{
			Flow:  predFlow(rng.Intn(30)),
			Path:  types.Path{types.SwitchID(rng.Intn(3)), types.SwitchID(3 + rng.Intn(3)), types.SwitchID(6 + rng.Intn(3))},
			STime: st, ETime: st + types.Time(rng.Intn(30)),
			Bytes: uint64(i), Pkts: 1,
		})
	}
	v := StoreView{S: s}
	for trial := 0; trial < 200; trial++ {
		p := Predicate{Link: types.AnyLink, Range: types.AllTime}
		if rng.Intn(2) == 0 {
			f := predFlow(rng.Intn(30))
			p.Flow = &f
		}
		if rng.Intn(2) == 0 {
			p.Link = types.LinkID{A: types.SwitchID(rng.Intn(4)), B: types.SwitchID(3 + rng.Intn(4))}
			if rng.Intn(3) == 0 {
				p.Link.A = types.WildcardSwitch
			}
		}
		if rng.Intn(2) == 0 {
			from := types.Time(rng.Intn(180))
			p.Range = types.TimeRange{From: from, To: from + types.Time(rng.Intn(60))}
		}
		var pushed, filtered []uint64
		v.ScanRecords(context.Background(), p, func(r *types.Record) { pushed = append(pushed, r.Bytes) })
		v.ScanRecords(context.Background(), Predicate{Link: types.AnyLink, Range: types.AllTime}, func(r *types.Record) {
			if p.Match(r) {
				filtered = append(filtered, r.Bytes)
			}
		})
		if len(pushed) != len(filtered) {
			t.Fatalf("trial %d (%+v): pushdown %d records, filter %d", trial, p, len(pushed), len(filtered))
		}
		for i := range pushed {
			if pushed[i] != filtered[i] {
				t.Fatalf("trial %d (%+v): order diverges at %d", trial, p, i)
			}
		}
	}
}
