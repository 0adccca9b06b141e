package query

// Benchmarks and allocation guards for the one-scan-per-op evaluators
// and the stateful merger: the numbers the PR 13 ledger's query-scan
// and query-fanout workloads are made of, pinned where `go test` can see
// them rot.

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pathdump/internal/testutil"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// aggStore builds a 4-shard store of n records over the given number of
// flows, sealed into segments of 256 (so a scan merges many cursors) —
// the shape of a query-scan host. A flow's source address is its number
// times an odd 32-bit constant, so the flows fill all four stripes
// whatever the flow hash makes of small counters.
func aggStore(n, flows int) *tib.Store {
	rng := rand.New(rand.NewSource(9))
	s := tib.NewStoreConfig(tib.Config{Shards: 4, SegmentRecords: 256})
	for i := 0; i < n; i++ {
		f := rng.Intn(flows)
		s.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(uint32(f) * 2654435761), DstIP: 9, SrcPort: uint16(f), DstPort: 80, Proto: types.ProtoTCP},
			Path:  types.Path{types.SwitchID(f % 8), types.SwitchID(8 + rng.Intn(4)), 20},
			STime: types.Time(i), ETime: types.Time(i + 50),
			Bytes: uint64(rng.Intn(100_000)), Pkts: 3,
		})
	}
	return s
}

// BenchmarkExecuteAggregate measures the host side of the aggregate ops
// over a segmented 20k-record store: one predicate-pushed scan each
// (fsd: one per link), where the composed evaluators paid a rescan and a
// key string per flow.
func BenchmarkExecuteAggregate(b *testing.B) {
	v := StoreView{S: aggStore(20_000, 2000)}
	for _, q := range []Query{
		{Op: OpTopK, K: 100},
		{Op: OpFSD, Links: []types.LinkID{{A: 3, B: 9}, {A: 5, B: 11}}, BinBytes: 10_000},
		{Op: OpConformance, Avoid: []types.SwitchID{10}},
		{Op: OpFlows, Link: types.LinkID{A: types.WildcardSwitch, B: 20}},
	} {
		b.Run(string(q.Op), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, _ := ExecuteContext(context.Background(), q, v); res.Op != q.Op {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

// TestTopKAllocsAreConstant: once the pools are warm, a top-k evaluation
// allocates its answer and nothing that grows with the records scanned
// or the flows ranked — 4× the records and 8× the flows cost not one
// allocation more.
func TestTopKAllocsAreConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	q := Query{Op: OpTopK, K: 100}
	measure := func(n, flows int) float64 {
		v := StoreView{S: aggStore(n, flows)}
		ExecuteContext(context.Background(), q, v) // warm: pooled eval grows its map and slice once
		return testing.AllocsPerRun(20, func() {
			if res, _ := ExecuteContext(context.Background(), q, v); len(res.Top) != 100 {
				t.Fatalf("top-k returned %d entries", len(res.Top))
			}
		})
	}
	small, big := measure(5_000, 500), measure(20_000, 4000)
	if big > 8 {
		t.Errorf("top-k over 20k records / 4000 flows: %v allocations, want a small constant (<= 8)", big)
	}
	if big > small+1 {
		t.Errorf("top-k allocations grow with the store: %v at 5k records, %v at 20k", small, big)
	}
}

// sprayChildren builds n children that all report the same `flows`
// flows — every fold collides with everything merged so far, the case
// in which a merge that rebuilds its state per child costs
// children × output.
func sprayChildren(n, flows int, op Op) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i].Op = op
		for j := 0; j < flows; j++ {
			f := types.FlowID{SrcIP: types.IP(j), DstIP: 1, SrcPort: uint16(j), DstPort: 80, Proto: types.ProtoTCP}
			switch op {
			case OpFlows:
				out[i].Flows = append(out[i].Flows, types.Flow{ID: f, Path: types.Path{types.SwitchID(j % 5), 9}})
			case OpTopK:
				out[i].Top = append(out[i].Top, FlowBytes{Flow: f, Bytes: uint64(1000 + j), Pkts: 1})
			}
		}
	}
	return out
}

// TestMergeAllocsLinearInOutput: folding 128 children allocates what
// folding 8 does — the merged answer and one set of fold state — not 16
// times as much: the dedup set / accumulator survives from child to
// child instead of being rebuilt from the whole result for each.
func TestMergeAllocsLinearInOutput(t *testing.T) {
	for _, op := range []Op{OpTopK, OpFlows} {
		q := Query{Op: op, K: 100}
		measure := func(n int) float64 {
			kids := sprayChildren(n, 100, op)
			return testing.AllocsPerRun(20, func() {
				var dst Result
				m := NewStreamMerger(q, &dst, n)
				for i := range kids {
					m.Add(i, &kids[i])
				}
				if len(dst.Top)+len(dst.Flows) != 100 {
					t.Fatalf("%s: merged %d entries, want 100", op, len(dst.Top)+len(dst.Flows))
				}
			})
		}
		few, many := measure(8), measure(128)
		if many > few+2 {
			t.Errorf("%s merge: %v allocations for 8 children, %v for 128 — state is being rebuilt per child", op, few, many)
		}
	}
}

// TestRecordBufAllocs: handing a reply's records back to the pool is
// free when there are none — every host-query of an op that carries no
// records does exactly that — and costs at most the pool's one pointer
// box when there are. PutRecordBuf used to take the address of its own
// parameter, which moved the slice header to the heap at function entry,
// on the nil path too.
func TestRecordBufAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { PutRecordBuf(nil) }); got != 0 {
		t.Errorf("PutRecordBuf(nil) allocates %.0f times, want 0", got)
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	if got := testing.AllocsPerRun(100, func() { PutRecordBuf(append(GetRecordBuf(), types.Record{Bytes: 1})) }); got > 1 {
		t.Errorf("a Get/Put cycle on a pooled buffer allocates %.0f times, want <= 1", got)
	}
}

// TestTopKSelectionMatchesFullSort: keeping the k best by selection gives,
// element for element, the front of the full sort under ⟨bytes desc,
// flowCompare⟩ — with byte counts that tie constantly, k = 1, k at and
// past the list's length — and leaves exactly the losers behind it (the
// merger indexes only the survivors). Through both callers, k ≤ 0 means
// the paper's 1000.
func TestTopKSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fullSort := func(s []FlowBytes) []FlowBytes {
		out := make([]FlowBytes, len(s))
		copy(out, s)
		sort.Slice(out, func(i, j int) bool { return rankFlowBytes(out[i], out[j]) < 0 })
		return out
	}
	list := func(n, distinctBytes int) []FlowBytes {
		s := make([]FlowBytes, n)
		for i := range s {
			s[i] = FlowBytes{
				Flow:  types.FlowID{SrcIP: types.IP(rng.Intn(4)), DstIP: 9, SrcPort: uint16(i), DstPort: uint16(rng.Intn(3)), Proto: types.ProtoTCP},
				Bytes: uint64(rng.Intn(distinctBytes)), Pkts: uint64(i),
			}
		}
		rng.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	for round := 0; round < 400; round++ {
		n := rng.Intn(300)
		s := list(n, 1+rng.Intn(8))
		k := 1 + rng.Intn(n+10)
		switch round % 4 {
		case 0:
			k = 1
		case 1:
			k = max(1, n)
		}
		want := fullSort(s)
		top := topFlowBytes(s, k)
		if !reflect.DeepEqual(top, want[:min(k, n)]) {
			t.Fatalf("n=%d k=%d: selection kept\n%v\nthe full sort ranks\n%v", n, k, top, want[:min(k, n)])
		}
		if rest := fullSort(s[len(top):]); !reflect.DeepEqual(rest, want[len(top):]) {
			t.Fatalf("n=%d k=%d: what selection left behind is not the %d losers", n, k, n-len(top))
		}
	}

	// The evaluator and the merger, with k unset: 1,500 single-record flows
	// in 7 byte classes.
	s := tib.NewStoreConfig(tib.Config{Shards: 4, SegmentRecords: 256})
	totals := list(1500, 7)
	for i, fb := range totals {
		s.Add(types.Record{Flow: fb.Flow, Path: types.Path{1, 2}, STime: types.Time(i), ETime: types.Time(i + 1), Bytes: fb.Bytes, Pkts: fb.Pkts})
	}
	want := fullSort(totals)[:1000]
	for _, k := range []int{0, -3} {
		q := Query{Op: OpTopK, K: k}
		if got := execute(t, q, StoreView{S: s}).Top; !reflect.DeepEqual(got, want) {
			t.Errorf("Execute with K=%d does not return the full sort's first 1000 (got %d entries)", k, len(got))
		}
		var dst Result
		m := NewStreamMerger(q, &dst, 3)
		for i := 0; i < 3; i++ {
			m.Add(i, &Result{Op: OpTopK, Top: fullSort(totals[i*500 : (i+1)*500])})
		}
		if !m.Done() || !reflect.DeepEqual(dst.Top, want) {
			t.Errorf("StreamMerger with K=%d does not fold to the full sort's first 1000 (got %d entries)", k, len(dst.Top))
		}
	}
}

// TestExecuteAllocs pins an evaluation's fixed cost at zero: with the
// evaluator pool warm, each op's visitor is a method value the pooled
// eval already holds, so what ExecuteContext allocates over a store is
// its answer and nothing else — none for a scalar answer or a clean
// conformance sweep, one slice for a top-k or a one-path answer, and the
// two appends that grow a two-flow answer.
func TestExecuteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	v := StoreView{S: fixture()}
	f1 := types.FlowID{SrcIP: 1, DstIP: 200, SrcPort: 1, DstPort: 80, Proto: 6}
	for _, c := range []struct {
		q    Query
		want float64
	}{
		{Query{Op: OpCount, Flow: f1}, 0},
		{Query{Op: OpDuration, Flow: f1}, 0},
		{Query{Op: OpPaths, Flow: f1, Link: types.AnyLink}, 1},
		{Query{Op: OpConformance, MaxPathLen: 8}, 0},
		{Query{Op: OpTopK, K: 2}, 1},
		{Query{Op: OpFlows, Link: types.LinkID{A: 0, B: 8}}, 2},
	} {
		execute(t, c.q, v) // warm the evaluator pool
		got := testing.AllocsPerRun(100, func() { execute(t, c.q, v) })
		if got != c.want {
			t.Errorf("%s: %v allocations, want %v (its answer)", c.q.Op, got, c.want)
		}
	}
}
