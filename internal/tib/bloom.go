package tib

// flowFilter is a per-segment bloom filter over the flow IDs a sealed
// segment contains. Single-flow queries (the getPaths/getCount/getDuration
// host APIs, and every trigger re-evaluation) probe it before touching the
// segment's flow postings: a negative answer prunes the whole segment with
// three bit tests, exactly like a time-bound miss, which matters because a
// long-lived store accumulates hundreds of sealed segments per shard and a
// typical flow appears in only a handful of them. A filter is a section
// of its segment's block (see block.go), written once at seal and probed
// in place; a segment spilled cold keeps a copy. The zero-length filter
// of an active segment admits everything.
//
// Sizing is ~8 bits per distinct flow (rounded up to a power of two),
// which with 3 hash probes gives a false-positive rate around 3% — a
// false positive only costs the posting lookup the filter was trying to
// save, never a wrong answer.
type flowFilter []byte

// filterHashes is the probe count (k). The two underlying hashes are
// combined Kirsch–Mitzenmacher style: probe i tests bit h1 + i·h2.
const filterHashes = 3

// filterLen is a filter's size in bytes for the given distinct-flow
// count: a power of two, at least 8.
func filterLen(distinct int) int {
	n := 8
	for n < distinct {
		n <<= 1
	}
	return n
}

// newFlowFilter sizes a filter for the given distinct-flow count.
func newFlowFilter(distinct int) flowFilter { return make(flowFilter, filterLen(distinct)) }

// probes derives the Kirsch–Mitzenmacher hash pair from a flow's
// types.StoreHash. h1 is the hash itself, whose low bits vary within
// a stripe (the stripe is its top bits); h2 is forced odd so successive
// probes never collapse onto one bit.
func probes(h uint64) (h1, h2 uint64) {
	return h, ((h>>17 | h<<47) * 0x9e3779b97f4a7c15) | 1
}

func (f flowFilter) add(h uint64) {
	h1, h2 := probes(h)
	mask := uint64(len(f))*8 - 1
	for i := uint64(0); i < filterHashes; i++ {
		b := (h1 + i*h2) & mask
		f[b>>3] |= 1 << (b & 7)
	}
}

// mayContain reports whether the flow hash may be in the set. False
// positives are possible (bounded by the sizing above); false negatives
// are not.
func (f flowFilter) mayContain(h uint64) bool {
	if len(f) == 0 {
		return true
	}
	h1, h2 := probes(h)
	mask := uint64(len(f))*8 - 1
	for i := uint64(0); i < filterHashes; i++ {
		b := (h1 + i*h2) & mask
		if f[b>>3]&(1<<(b&7)) == 0 {
			return false
		}
	}
	return true
}
