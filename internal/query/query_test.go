package query

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// fixture builds a store with a known record population.
func fixture() *tib.Store {
	s := tib.NewStore()
	add := func(n int, p types.Path, bytes uint64, st, et types.Time) {
		s.Add(types.Record{
			Flow: types.FlowID{SrcIP: types.IP(n), DstIP: 200, SrcPort: uint16(n), DstPort: 80, Proto: 6},
			Path: p, STime: st, ETime: et, Bytes: bytes, Pkts: bytes / 1000,
		})
	}
	add(1, types.Path{0, 8, 16, 10, 2}, 5_000, 0, 10)
	add(2, types.Path{0, 8, 16, 10, 2}, 25_000, 5, 20)
	add(3, types.Path{0, 9, 18, 11, 2}, 500_000, 0, 30)
	add(4, types.Path{1, 8, 17, 10, 2}, 1_000, 15, 25)
	return s
}

// execute is ExecuteContext under a context that never ends, over a view
// that serves the op.
func execute(tb testing.TB, q Query, v View) Result {
	tb.Helper()
	res, err := ExecuteContext(context.Background(), q, v)
	if err != nil {
		tb.Fatalf("%s: %v", q.Op, err)
	}
	return res
}

func TestExecuteFlowsPathsCountDuration(t *testing.T) {
	v := StoreView{S: fixture()}

	res := execute(t, Query{Op: OpFlows, Link: types.LinkID{A: 0, B: 8}}, v)
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %v", res.Flows)
	}
	f1 := types.FlowID{SrcIP: 1, DstIP: 200, SrcPort: 1, DstPort: 80, Proto: 6}
	res = execute(t, Query{Op: OpPaths, Flow: f1, Link: types.AnyLink}, v)
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %v", res.Paths)
	}
	res = execute(t, Query{Op: OpCount, Flow: f1}, v)
	if res.Bytes != 5000 || res.Pkts != 5 {
		t.Errorf("count = %d/%d", res.Bytes, res.Pkts)
	}
	res = execute(t, Query{Op: OpDuration, Flow: f1}, v)
	if res.Duration != 10 {
		t.Errorf("duration = %v", res.Duration)
	}
	// Explicit range filter excludes early records.
	res = execute(t, Query{Op: OpFlows, Link: types.AnyLink, Range: types.TimeRange{From: 21, To: 100}}, v)
	if len(res.Flows) != 2 { // flows 3 (until 30) and 4 (until 25)
		t.Errorf("range-filtered flows = %v", res.Flows)
	}
}

func TestExecuteFSD(t *testing.T) {
	v := StoreView{S: fixture()}
	q := Query{Op: OpFSD, Links: []types.LinkID{{A: 0, B: 8}, {A: 0, B: 9}}, BinBytes: 10_000}
	res := execute(t, q, v)
	if len(res.Hists) != 2 {
		t.Fatalf("hists = %v", res.Hists)
	}
	// Link 0-8 carries flows of 5 000 (bin 0) and 25 000 (bin 2).
	h := res.Hists[0]
	if h.Bins[0] != 1 || len(h.Bins) < 3 || h.Bins[2] != 1 {
		t.Errorf("hist 0-8 = %v", h.Bins)
	}
	// Link 0-9 carries the 500 000-byte flow (bin 50).
	if got := res.Hists[1].Bins[50]; got != 1 {
		t.Errorf("hist 0-9 bin 50 = %d", got)
	}
}

func TestExecuteTopK(t *testing.T) {
	v := StoreView{S: fixture()}
	res := execute(t, Query{Op: OpTopK, K: 2}, v)
	if len(res.Top) != 2 {
		t.Fatalf("top = %v", res.Top)
	}
	if res.Top[0].Bytes != 500_000 || res.Top[1].Bytes != 25_000 {
		t.Errorf("top order = %v", res.Top)
	}
}

func TestExecuteConformance(t *testing.T) {
	v := StoreView{S: fixture()}
	// Path length ≥ 6 or traversing switch 18 violates.
	res := execute(t, Query{Op: OpConformance, MaxPathLen: 6, Avoid: []types.SwitchID{18}}, v)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v", res.Violations)
	}
	if !res.Violations[0].Path.Contains(18) {
		t.Errorf("wrong violation: %v", res.Violations[0])
	}
	// Waypoint: every path must include switch 8.
	res = execute(t, Query{Op: OpConformance, Waypoints: []types.SwitchID{8}}, v)
	if len(res.Violations) != 1 { // only flow 3 avoids 8
		t.Errorf("waypoint violations = %v", res.Violations)
	}
	// Per-flow conformance.
	f3 := types.FlowID{SrcIP: 3, DstIP: 200, SrcPort: 3, DstPort: 80, Proto: 6}
	res = execute(t, Query{Op: OpConformance, Flow: f3, Avoid: []types.SwitchID{18}}, v)
	if len(res.Violations) != 1 {
		t.Errorf("per-flow violations = %v", res.Violations)
	}
}

func TestExecuteMatrixAndRecords(t *testing.T) {
	v := StoreView{S: fixture()}
	res := execute(t, Query{Op: OpMatrix}, v)
	if len(res.Matrix) != 2 { // ⟨0,2⟩ and ⟨1,2⟩
		t.Fatalf("matrix = %v", res.Matrix)
	}
	if res.Matrix[0].SrcToR != 0 || res.Matrix[0].Bytes != 530_000 {
		t.Errorf("cell = %+v", res.Matrix[0])
	}
	res = execute(t, Query{Op: OpRecords, Link: types.AnyLink}, v)
	if len(res.Records) != 4 {
		t.Errorf("records = %d", len(res.Records))
	}
}

func TestMergeAssociativity(t *testing.T) {
	// Build three disjoint stores and check fold-left == fold-right for
	// every mergeable op.
	mk := func(seed int) StoreView {
		s := tib.NewStore()
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < 50; i++ {
			s.Add(types.Record{
				Flow:  types.FlowID{SrcIP: types.IP(seed*1000 + i), DstIP: 7, SrcPort: uint16(i), DstPort: 80, Proto: 6},
				Path:  types.Path{types.SwitchID(rng.Intn(3)), types.SwitchID(8 + rng.Intn(3)), 2},
				STime: types.Time(rng.Intn(50)), ETime: types.Time(50 + rng.Intn(50)),
				Bytes: uint64(rng.Intn(100_000)), Pkts: uint64(1 + rng.Intn(50)),
			})
		}
		return StoreView{S: s}
	}
	views := []StoreView{mk(1), mk(2), mk(3)}
	queries := []Query{
		{Op: OpFlows, Link: types.AnyLink},
		{Op: OpCount, Flow: types.FlowID{SrcIP: 1001, DstIP: 7, SrcPort: 1, DstPort: 80, Proto: 6}},
		{Op: OpFSD, Links: []types.LinkID{{A: 0, B: 8}, {A: 1, B: 9}}, BinBytes: 10_000},
		{Op: OpTopK, K: 10},
		{Op: OpMatrix},
		{Op: OpPoorTCP, Threshold: 1},
	}
	for _, q := range queries {
		parts := make([]Result, len(views))
		for i, v := range views {
			parts[i], _ = ExecuteContext(context.Background(), q, v) // poor_tcp: unsupported, merged as empty
		}
		left := Result{Op: q.Op}
		for i := range parts {
			p := parts[i]
			left.Merge(&p, q)
		}
		right := Result{Op: q.Op}
		for i := len(parts) - 1; i >= 0; i-- {
			p := parts[i]
			right.Merge(&p, q)
		}
		lb, _ := json.Marshal(canonical(left))
		rb, _ := json.Marshal(canonical(right))
		if string(lb) != string(rb) {
			t.Errorf("op %s: merge not order-independent:\n%s\n%s", q.Op, lb, rb)
		}
	}
}

// canonical sorts unordered result fields for comparison.
func canonical(r Result) Result {
	sortFlows(r.Flows)
	return r
}

func sortFlows(fs []types.Flow) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].ID.String()+fs[j].Path.Key() < fs[j-1].ID.String()+fs[j-1].Path.Key(); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func TestMergeTopKTruncates(t *testing.T) {
	a := []FlowBytes{{Flow: types.FlowID{SrcIP: 1}, Bytes: 100}}
	b := []FlowBytes{
		{Flow: types.FlowID{SrcIP: 2}, Bytes: 300},
		{Flow: types.FlowID{SrcIP: 3}, Bytes: 200},
	}
	r := Result{Op: OpTopK, Top: a}
	o := Result{Op: OpTopK, Top: b}
	r.Merge(&o, Query{Op: OpTopK, K: 2})
	if len(r.Top) != 2 || r.Top[0].Bytes != 300 || r.Top[1].Bytes != 200 {
		t.Errorf("merged top = %v", r.Top)
	}
}

func TestMergeDurationTakesMax(t *testing.T) {
	r := Result{Op: OpDuration, Duration: 5}
	o := Result{Op: OpDuration, Duration: 9}
	r.Merge(&o, Query{Op: OpDuration})
	if r.Duration != 9 {
		t.Errorf("duration = %v", r.Duration)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	q := Query{
		Op: OpFSD, Links: []types.LinkID{{A: 1, B: 2}}, BinBytes: 100,
		Range: types.TimeRange{From: 1, To: 2}, Avoid: []types.SwitchID{3},
	}
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var q2 Query
	if err := json.Unmarshal(b, &q2); err != nil {
		t.Fatal(err)
	}
	if q2.Op != q.Op || len(q2.Links) != 1 || q2.Links[0] != q.Links[0] || q2.Range != q.Range {
		t.Errorf("round trip lost data: %+v", q2)
	}
	v := StoreView{S: fixture()}
	res := execute(t, Query{Op: OpTopK, K: 3}, v)
	rb, _ := json.Marshal(res)
	var res2 Result
	if err := json.Unmarshal(rb, &res2); err != nil {
		t.Fatal(err)
	}
	if len(res2.Top) != len(res.Top) {
		t.Error("result round trip lost entries")
	}
}
