package query

import (
	"reflect"
	"testing"

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

// TestStreamMergerMatchesSequential: the streamed output must equal the
// sequential index-order merge — including for OpFlows, whose output
// slice order would expose any dependence on how the children were fed.
func TestStreamMergerMatchesSequential(t *testing.T) {
	for _, op := range []Op{OpFlows, OpTopK, OpCount} {
		t.Run(string(op), func(t *testing.T) {
			const n = 12
			q := Query{Op: op, K: 50}
			results := childResults(n, 40, op)
			want := sequentialMerge(q, results, nil)

			var got Result
			m := NewStreamMerger(q, &got, n)
			for i := range results {
				m.Add(i, &results[i])
			}
			if !m.Done() {
				t.Fatal("merger not done after all slots added")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("streamed merge differs from sequential")
			}
		})
	}
}

// TestStreamMergerNilContributions: nil slots (dropped stragglers) are
// skipped.
func TestStreamMergerNilContributions(t *testing.T) {
	const n = 8
	q := Query{Op: OpFlows}
	results := childResults(n, 10, OpFlows)
	skip := map[int]bool{0: true, 3: true, 7: true}
	want := sequentialMerge(q, results, skip)

	var got Result
	m := NewStreamMerger(q, &got, n)
	for i := range results {
		if skip[i] {
			m.Add(i, nil)
		} else {
			m.Add(i, &results[i])
		}
	}
	if !m.Done() {
		t.Fatal("merger not done after all slots added")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-slot merge differs from sequential merge that skips the same children")
	}
}

// TestStreamMergerRejectsOutOfOrder: a child added ahead of its slot is a
// caller bug, not something the merger reorders.
func TestStreamMergerRejectsOutOfOrder(t *testing.T) {
	results := childResults(2, 3, OpFlows)
	m := NewStreamMerger(Query{Op: OpFlows}, &Result{}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(1) before Add(0) did not panic")
		}
	}()
	m.Add(1, &results[1])
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
