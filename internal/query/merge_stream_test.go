package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pathdump/internal/types"
)

// childResults builds n deterministic per-child results for op, with
// partially overlapping flows so merging actually dedups/sums.
func childResults(n, per int, op Op) []Result {
	out := make([]Result, n)
	for i := range out {
		r := &out[i]
		r.Op = op
		for j := 0; j < per; j++ {
			f := types.FlowID{
				SrcIP:   types.IP(i*per + j),
				DstIP:   types.IP(j % 7), // overlap across children
				SrcPort: uint16(j),
				DstPort: 80,
				Proto:   types.ProtoTCP,
			}
			switch op {
			case OpFlows:
				r.Flows = append(r.Flows, types.Flow{ID: f, Path: types.Path{types.SwitchID(i), types.SwitchID(j % 5)}})
			case OpTopK:
				r.Top = append(r.Top, FlowBytes{Flow: f, Bytes: uint64(1000*i + j)})
			case OpCount:
				r.Bytes += uint64(j)
				r.Pkts++
			}
		}
	}
	return out
}

// sequentialMerge is the reference: fold children into dst strictly in
// index order.
func sequentialMerge(q Query, results []Result, skip map[int]bool) Result {
	var dst Result
	dst.Op = q.Op
	for i := range results {
		if skip[i] {
			continue
		}
		dst.Merge(&results[i], q)
	}
	return dst
}

// TestStreamMergerMatchesSequential: whatever order contributions arrive
// in, the streamed output must equal the sequential index-order merge —
// including for OpFlows, whose output slice order would expose any
// arrival-order dependence.
func TestStreamMergerMatchesSequential(t *testing.T) {
	for _, op := range []Op{OpFlows, OpTopK, OpCount} {
		t.Run(string(op), func(t *testing.T) {
			const n = 12
			q := Query{Op: op, K: 50}
			results := childResults(n, 40, op)
			want := sequentialMerge(q, results, nil)

			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				order := rng.Perm(n)
				var got Result
				m := NewStreamMerger(q, &got, n)
				for _, i := range order {
					m.Add(i, &results[i])
				}
				if !m.Done() {
					t.Fatal("merger not done after all slots added")
				}
				if m.Merged() != n {
					t.Fatalf("merged %d of %d", m.Merged(), n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (order %v): streamed merge differs from sequential", trial, order)
				}
			}
		})
	}
}

// TestStreamMergerNilContributions: nil slots (dropped stragglers) are
// skipped without blocking the prefix, and duplicates are ignored.
func TestStreamMergerNilContributions(t *testing.T) {
	const n = 8
	q := Query{Op: OpFlows}
	results := childResults(n, 10, OpFlows)
	skip := map[int]bool{0: true, 3: true, 7: true}
	want := sequentialMerge(q, results, skip)

	var got Result
	m := NewStreamMerger(q, &got, n)
	for i := n - 1; i >= 0; i-- { // worst case: fully reversed arrival
		if skip[i] {
			m.Add(i, nil)
		} else {
			m.Add(i, &results[i])
		}
		m.Add(i, &results[i]) // duplicate must be ignored
	}
	if !m.Done() || m.Merged() != n-len(skip) {
		t.Fatalf("done=%v merged=%d, want %d", m.Done(), m.Merged(), n-len(skip))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-slot merge differs from sequential merge that skips the same children")
	}
}

// TestStreamMergerPublishesTopOnce: a top-k merge writes dst.Top when its
// last slot is consumed — a dropped straggler's nil counts — and not
// before, so a merger abandoned short of Done leaves the base's list as
// it found it, element for element and in the base's own array.
func TestStreamMergerPublishesTopOnce(t *testing.T) {
	const n = 4
	q := Query{Op: OpTopK, K: 50}
	results := childResults(n, 40, OpTopK)
	base := childResults(1, 40, OpTopK)[0]
	held := append([]FlowBytes(nil), base.Top...)

	dst := Result{Op: OpTopK, Top: base.Top}
	m := NewStreamMerger(q, &dst, n)
	for i := 0; i < n-1; i++ {
		m.Add(i, &results[i])
	}
	if m.Done() || &dst.Top[0] != &base.Top[0] || !reflect.DeepEqual(dst.Top, held) {
		t.Fatalf("with a slot outstanding (done=%v) the base's Top was already rewritten", m.Done())
	}

	m.Add(n-1, nil) // the straggler was dropped
	want := Result{Op: OpTopK, Top: held}
	for i := 0; i < n-1; i++ {
		want.Merge(&results[i], q)
	}
	if !m.Done() || !reflect.DeepEqual(dst, want) {
		t.Fatalf("done=%v; the published Top differs from the pairwise merge of the same children", m.Done())
	}
	if !reflect.DeepEqual(base.Top, held) {
		t.Fatal("publishing wrote into the base's array")
	}
}

// arrival is one child's indexed contribution on its way to the merger's
// single consumer; a nil res is a child that contributes nothing.
type arrival struct {
	index int
	res   *Result
}

// drain feeds exactly n arrivals from ch to a merger over dst, as the
// controller's completion loop does, and returns how many were non-nil.
func drain(q Query, dst *Result, n int, ch <-chan arrival) int {
	m := NewStreamMerger(q, dst, n)
	for i := 0; i < n; i++ {
		a := <-ch
		m.Add(a.index, a.res)
	}
	return m.Merged()
}

// TestStreamMergerConcurrentArrivals: children produced concurrently and
// handed to the single consumer over a channel, in whatever order they
// land, still produce the deterministic merge.
func TestStreamMergerConcurrentArrivals(t *testing.T) {
	const n = 16
	q := Query{Op: OpFlows}
	results := childResults(n, 25, OpFlows)
	want := sequentialMerge(q, results, nil)

	for trial := 0; trial < 10; trial++ {
		ch := make(chan arrival, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
				ch <- arrival{i, &results[i]}
			}(i)
		}
		var got Result
		if merged := drain(q, &got, n, ch); merged != n {
			t.Fatalf("merged %d of %d", merged, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: channel-fed merge nondeterministic", trial)
		}
	}
}

// BenchmarkStreamingMerge quantifies the streaming win over the barrier
// merge: children's results land staggered in time (as real per-host
// replies do), and the streaming merge folds each one as it arrives
// instead of waiting for the slowest child before starting any merge
// work. Top-k keeps per-child merge cost flat (the running result is
// capped at k), and the stagger is chosen of the same order, which is
// where pipelining merges behind arrivals pays the most — the barrier
// variant pays last-arrival + every merge serially, the streaming one
// roughly max(last arrival, first arrival + Σ merges). Tracked by the CI
// bench-regression gate next to BenchmarkParallelFanout.
func BenchmarkStreamingMerge(b *testing.B) {
	const (
		children = 8
		perChild = 5000
		stagger  = 4 * time.Millisecond
	)
	q := Query{Op: OpTopK, K: perChild}
	results := childResults(children, perChild, OpTopK)

	feed := func() <-chan arrival {
		ch := make(chan arrival, children)
		for i := 0; i < children; i++ {
			go func(i int) {
				time.Sleep(time.Duration(i) * stagger)
				ch <- arrival{i, &results[i]}
			}(i)
		}
		return ch
	}

	b.Run(fmt.Sprintf("barrier-%dx%d", children, perChild), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := feed()
			buf := make([]*Result, children)
			for j := 0; j < children; j++ {
				p := <-ch
				buf[p.index] = p.res
			}
			var dst Result
			dst.Op = q.Op
			for j := range buf {
				dst.Merge(buf[j], q)
			}
			if len(dst.Top) != perChild {
				b.Fatal("bad merge")
			}
		}
	})
	b.Run(fmt.Sprintf("streaming-%dx%d", children, perChild), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var dst Result
			if drain(q, &dst, children, feed()) != children {
				b.Fatal("missing contributions")
			}
			if len(dst.Top) != perChild {
				b.Fatal("bad merge")
			}
		}
	})
}
