package query

import (
	"fmt"
	"math/rand"
	"testing"

	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// totalsFlowN is the n-th distinct five-tuple.
func totalsFlowN(n int) types.FlowID {
	return types.FlowID{SrcIP: types.IP(10<<24 | n), DstIP: 7, SrcPort: uint16(n), DstPort: 80, Proto: types.ProtoTCP}
}

// collidingTotals picks n flows whose home positions under key crowd the
// two ends of the index, at every size up to 4,096 entries: half on its
// last eight positions and half on its first eight. Their probe runs
// wrap past the table's end into each other.
func collidingTotals(key types.FlowKey, n int) []types.FlowID {
	var high, low []types.FlowID
	for i := 0; len(high)+len(low) < n; i++ {
		f := totalsFlowN(1<<20 + i)
		switch home := key.Hash(f) & 4095; {
		case home >= 4096-8 && len(high) < n/2:
			high = append(high, f)
		case home < 8 && len(low) < n-n/2:
			low = append(low, f)
		}
	}
	return append(high, low...)
}

// lookup is the position t's index holds for f, or -1: the probe add
// makes, without the insert.
func (t *flowTotals) lookup(f types.FlowID) int {
	h := uint32(t.key.Hash(f))
	mask := len(t.index) - 1
	for i := int(h) & mask; t.index[i].pos != 0; i = (i + 1) & mask {
		if e := t.index[i]; e.h == h && t.list[e.pos-1].Flow == f {
			return int(e.pos - 1)
		}
	}
	return -1
}

// sameTotals checks t against a reference list: the same flows in the
// same order with the same sums, each found through the index at its
// list position, an index at most 3/4 full holding one entry per flow,
// and none of absent that the reference lacks found.
func sameTotals(t *flowTotals, ref []FlowBytes, in map[types.FlowID]int, absent []types.FlowID) error {
	if len(t.list) != len(ref) {
		return fmt.Errorf("%d flows, reference %d", len(t.list), len(ref))
	}
	if 4*len(t.list) > 3*len(t.index) {
		return fmt.Errorf("%d flows in an index of %d: over 3/4 full", len(t.list), len(t.index))
	}
	used := 0
	for _, e := range t.index {
		if e.pos != 0 {
			used++
		}
	}
	if used != len(t.list) {
		return fmt.Errorf("index holds %d entries for %d flows", used, len(t.list))
	}
	for i, fb := range t.list {
		if fb != ref[i] {
			return fmt.Errorf("position %d holds %+v, reference %+v", i, fb, ref[i])
		}
		if at := t.lookup(fb.Flow); at != i {
			return fmt.Errorf("flow %v at position %d is found at %d", fb.Flow, i, at)
		}
	}
	for _, f := range absent {
		if _, ok := in[f]; !ok && t.lookup(f) >= 0 {
			return fmt.Errorf("flow %v not in the reference is found", f)
		}
	}
	return nil
}

// TestFlowTotalsMatchesReference drives the top-k accumulator through
// ≥ 5,000 adds over 1,500 flows, 96 of them chosen (under the seed's
// fixed key) so that their home positions collide and wrap past the
// index's end, and compares it with a map after every add: through its
// regrowth from the first size, a reset that keeps the grown index, and
// StreamMerger.foldTop's trim and re-index, where each fold's adds land
// on the index rebuilt over the last fold's survivors.
func TestFlowTotalsMatchesReference(t *testing.T) {
	seeds := int64(2)
	if testutil.RaceEnabled {
		seeds = 1 // a full comparison per add is slow under the detector
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := types.FlowKey{rng.Uint64(), rng.Uint64()}
		flows := collidingTotals(key, 96)
		for i := 0; len(flows) < 1500; i++ {
			flows = append(flows, totalsFlowN(i))
		}
		rng.Shuffle(96, func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		probe := flows[:64]

		// The reference: a map from flow to its position in a list of
		// totals, in first-add order.
		acc := flowTotals{key: key}
		in := make(map[types.FlowID]int)
		var ref []FlowBytes
		add := func(step int, f types.FlowID) {
			t.Helper()
			b, p := uint64(1+rng.Intn(1500)), uint64(1+rng.Intn(3))
			acc.add(f, b, p)
			i, ok := in[f]
			if !ok {
				i, in[f] = len(ref), len(ref)
				ref = append(ref, FlowBytes{Flow: f})
			}
			ref[i].Bytes += b
			ref[i].Pkts += p
			if err := sameTotals(&acc, ref, in, probe); err != nil {
				t.Fatalf("seed %d add %d: %v", seed, step, err)
			}
		}
		// Every flow once (the index regrows from its first size to
		// 2,048), then repeats that land on a full index.
		for i, f := range flows {
			add(i, f)
		}
		for i := 0; i < 2000; i++ {
			add(len(flows)+i, flows[rng.Intn(len(flows))])
		}
		grown := len(acc.index)
		acc.reset()
		clear(in)
		ref = ref[:0]
		if err := sameTotals(&acc, ref, in, flows); err != nil || len(acc.index) != grown {
			t.Fatalf("seed %d after reset: %v (index %d, was %d)", seed, err, len(acc.index), grown)
		}
		// Refill the kept index: the colliding flows first, so the wrap
		// is crowded from the first add.
		for i := 0; i < 1500; i++ {
			add(i, flows[rng.Intn(96)])
		}

		// foldTop: children of ≤ 60 entries over the same flows, kept to
		// the top 100, so every fold trims. The accumulator must match the
		// reference's ranked survivors after each fold.
		const k = 100
		var dst Result
		m := NewStreamMerger(Query{Op: OpTopK, K: k}, &dst, 40)
		m.totals.key = key // the colliding flows collide in the merger's index too
		var want []FlowBytes
		adds := 0
		for c := 0; c < 40; c++ {
			child := make([]FlowBytes, 0, 60)
			seen := make(map[types.FlowID]bool)
			for len(child) < cap(child) {
				f := flows[rng.Intn(len(flows))]
				if !seen[f] {
					seen[f] = true
					child = append(child, FlowBytes{Flow: f, Bytes: uint64(rng.Intn(5000)), Pkts: 1})
				}
			}
			m.Add(c, &Result{Op: OpTopK, Top: child})
			adds += len(child)
			want = refMergeTop(want, child, k)
			clear(in)
			for i, fb := range want {
				in[fb.Flow] = i
			}
			if err := sameTotals(&m.totals, want, in, flows); err != nil {
				t.Fatalf("seed %d fold %d: %v", seed, c, err)
			}
		}
		if adds < 2000 || len(dst.Top) != k {
			t.Fatalf("seed %d: %d fold adds, merged top of %d", seed, adds, len(dst.Top))
		}
	}
}
