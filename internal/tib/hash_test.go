package tib

import (
	"math/rand"
	"testing"

	"pathdump/internal/types"
)

// stripeLoads adds one record per flow to a store of the given stripe
// count and returns how many records each stripe holds.
func stripeLoads(shards int, flows []types.FlowID) []int {
	s := NewStoreConfig(Config{Shards: shards})
	for i, f := range flows {
		s.Add(mkRecord(f, types.Path{1, 2}, types.Time(i), types.Time(i+1), 1, 1))
	}
	loads := make([]int, len(s.shards))
	for i := range s.shards {
		for _, seg := range s.shards[i].segs() {
			loads[i] += seg.recs()
		}
	}
	return loads
}

// TestFlowHashSpreadsStripes: the flows the tests build — flowN(0..999),
// whose five-tuples differ in a few low bits — and flows crafted against
// the fixed key (their address word equal to StoreKey()'s first word) fill
// every stripe of a 2-, 4- and 16-stripe store to within 30 % of its
// share. Under FNV-1a, flowN(0..999) all landed in stripe 0 of a 2- or
// 4-stripe store, so tests that meant to cross stripes filled one.
func TestFlowHashSpreadsStripes(t *testing.T) {
	const n = 1000
	sets := map[string][]types.FlowID{}
	for i := 0; i < n; i++ {
		sets["flowN"] = append(sets["flowN"], flowN(i))
		sets["crafted"] = append(sets["crafted"], types.FlowID{
			SrcIP: types.IP(types.StoreKey()[0] >> 32), DstIP: types.IP(types.StoreKey()[0]),
			SrcPort: uint16(i), DstPort: 80, Proto: 6,
		})
	}
	for name, flows := range sets {
		for _, shards := range []int{2, 4, 16} {
			share := float64(n) / float64(shards)
			for si, got := range stripeLoads(shards, flows) {
				if float64(got) < 0.7*share || float64(got) > 1.3*share {
					t.Errorf("%s over %d stripes: stripe %d holds %d flows, want %.0f ± 30 %%", name, shards, si, got, share)
				}
			}
		}
	}
}

// TestBloomWithinStripe: a flow scan probes only its own stripe's
// blooms, so the bloom must keep its false-positive rate among flows that
// share a stripe. 50k random flows fill a 16-stripe store in sealed
// 512-record blocks (sized for ≈ 3 % false positives); 10k absent flows,
// each probing the blocks of the stripe it maps to, must pass at most
// 5 % of them. A stripe read from the hash's low bits — h1 of every
// probe — fails this.
func TestBloomWithinStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	flow := func() types.FlowID {
		return types.FlowID{SrcIP: types.IP(rng.Uint32()), DstIP: types.IP(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: 6}
	}
	s := NewStoreConfig(Config{Shards: 16, SegmentRecords: 512})
	present := map[types.FlowID]bool{}
	for len(present) < 50000 {
		f := flow()
		if !present[f] {
			present[f] = true
			s.Add(mkRecord(f, types.Path{1, 2}, types.Time(len(present)), types.Time(len(present)+1), 1, 1))
		}
	}
	probed, passed := 0, 0
	for absent := 0; absent < 10000; {
		f := flow()
		if present[f] {
			continue
		}
		absent++
		h := types.StoreHash(f)
		for _, seg := range s.shards[s.stripe(h)].segs() {
			if seg.sealed() {
				probed++
				if seg.filter.mayContain(h) {
					passed++
				}
			}
		}
	}
	if probed < 50000 {
		t.Fatalf("only %d block probes; the store sealed too few blocks", probed)
	}
	rate := float64(passed) / float64(probed)
	t.Logf("%d of %d probes passed (%.2f %%)", passed, probed, 100*rate)
	if rate > 0.05 {
		t.Errorf("absent flows passed %d of %d blooms of their stripe (%.1f %%), want ≤ 5 %%", passed, probed, 100*rate)
	}
}
