package tib

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pathdump/internal/cherrypick"
	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// checkIndex holds the flow index to its invariants: a power-of-two
// size at most 3/4 full, flows counting its entries, every entry pointing
// at the first open record of a distinct flow under that flow's hash,
// every open flow in it, and every entry found by a probe from its home
// position — no empty entry between the two, which is what a wrong
// backward shift breaks.
func checkIndex(m *Memory) error {
	if m.n == 0 {
		if m.index != nil || m.slab != nil || m.flows != 0 {
			return fmt.Errorf("a drained memory holds an index of %d (%d flows) and a slab of %d", len(m.index), m.flows, len(m.slab))
		}
		return nil
	}
	size := len(m.index)
	if size < indexMin || size&(size-1) != 0 || 4*m.flows > 3*size {
		return fmt.Errorf("index of %d entries holding %d flows", size, m.flows)
	}
	heads := map[int32]bool{}
	for i, e := range m.index {
		if e.slot == 0 {
			continue
		}
		s := &m.slab[e.slot]
		if e.h != uint32(m.key.Hash(s.Flow)) || s.h != e.h {
			return fmt.Errorf("index entry %d holds hash %#x, its record %#x, its flow hashes to %#x", i, e.h, s.h, m.key.Hash(s.Flow))
		}
		if at := m.find(s.Flow, e.h); at != i {
			return fmt.Errorf("flow %v sits at %d (home %d) but its probe stops at %d", s.Flow, i, int(e.h)&(size-1), at)
		}
		heads[e.slot] = true
	}
	if len(heads) != m.flows {
		return fmt.Errorf("%d index entries, flows counts %d", len(heads), m.flows)
	}
	firsts := map[types.FlowID]int32{}
	for i := m.oldest(); i != 0; i = m.slab[i].next {
		if _, seen := firsts[m.slab[i].Flow]; !seen {
			firsts[m.slab[i].Flow] = i
		}
	}
	if len(firsts) != m.flows {
		return fmt.Errorf("%d open flows, %d in the index", len(firsts), m.flows)
	}
	for f, i := range firsts {
		if m.index[m.find(f, uint32(m.key.Hash(f)))].slot != i {
			return fmt.Errorf("flow %v: the index does not lead to its first record %d", f, i)
		}
	}
	return nil
}

// TestMemoryIndexChurnDoesNotGrow closes and reopens the §5.3 load point's
// 4,000 resident flows, each round with new five-tuples (new hashes, new
// home positions), for 200 rounds: a table with tombstones would fill up
// with them and grow, and a Go map split its tables. The index keeps the
// size a fresh fill of 4,000 makes, and the churn allocates nothing.
func TestMemoryIndexChurnDoesNotGrow(t *testing.T) {
	const resident, rounds = 4000, 200
	m := NewMemory(0)
	hdr := cherrypick.Header{VLANs: []uint16{5, 6}}
	for i := 0; i < resident; i++ {
		m.Update(0, flowN(i), hdr, 100, false)
	}
	fresh := len(m.index)
	buf := make([]MemEntry, 0, 4)
	gen := 0
	allocs := testing.AllocsPerRun(rounds, func() {
		gen++
		for i := 0; i < resident; i++ {
			old := flowN((gen-1)*resident + i)
			if buf = m.AppendEvictFlow(buf[:0], old); len(buf) != 1 {
				t.Fatalf("round %d: evicted %d records of %v, want 1", gen, len(buf), old)
			}
			m.Update(types.Time(gen), flowN(gen*resident+i), hdr, 100, false)
		}
		if len(m.index) != fresh {
			t.Fatalf("round %d: the index grew from %d to %d entries", gen, fresh, len(m.index))
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per round of 4,000 closed and 4,000 opened flows, want 0", allocs)
	}
	if gen < rounds || m.Len() != resident || m.flows != resident || len(m.index) != fresh {
		t.Errorf("after %d rounds: Len %d, %d flows in %d entries; want %d in %d", gen, m.Len(), m.flows, len(m.index), resident, fresh)
	}
	if err := checkIndex(m); err != nil {
		t.Fatal(err)
	}
}

// collidingFlows picks n flows for m whose home positions crowd the two
// ends of the index, at every size up to 4,096 entries: half on its last
// eight positions and half on its first eight. Their probe runs wrap past
// the table's end into each other, so a deletion there has to shift
// entries back across the wrap — and leave alone the ones whose home is
// past the hole.
func collidingFlows(m *Memory, n int) []types.FlowID {
	var high, low []types.FlowID
	for i := 0; len(high)+len(low) < n; i++ {
		f := flowN(1<<20 + i)
		switch home := m.key.Hash(f) & 4095; {
		case home >= 4096-8 && len(high) < n/2:
			high = append(high, f)
		case home < 8 && len(low) < n-n/2:
			low = append(low, f)
		}
	}
	return append(high, low...)
}

// TestMemoryIndexMatchesReference is TestMemoryMatchesReference at the
// index's scale: 2,500 flows, a few hundred to 2,400 of them open at a
// time (an index of 512 to 4,096 entries), a fifth of them chosen so that
// their home positions collide and wrap past the table's end, driven
// through Update, EvictFlow, one-flow AppendLive, idle sweeps that take
// records out of the middle of a flow's chain, and drains to zero (the
// index released with the slab) and refills that grow it again from its
// first size. After every eviction and lookup the entries handed out, Len
// and the index's own invariants (checkIndex) must hold; a backward shift
// that moves an entry it should not — or keeps one it should move — shows
// as a flow its probe cannot reach.
func TestMemoryIndexMatchesReference(t *testing.T) {
	hdrs := []cherrypick.Header{{}, {DSCP: 3}, {VLANs: []uint16{1}}, {VLANs: []uint16{1, 2}}}
	steps := 8000
	if testing.Short() || testutil.RaceEnabled {
		steps = 2400
	}
	idle := types.Time(steps / 8)
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMemory(idle), newRefMemory(idle)
		m.key = [2]uint64{rng.Uint64(), rng.Uint64()} // the seed picks the colliding flows too
		flows := collidingFlows(m, 500)
		for i := 0; i < 2000; i++ {
			flows = append(flows, flowN(i))
		}
		rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		update := func(f types.FlowID, hdr cherrypick.Header, now types.Time) {
			size := 40 + rng.Intn(1460)
			m.Update(now, f, hdr, size, false)
			ref.Update(now, f, hdr, size, false)
		}
		check := func(step int, op string, got []MemEntry, want []*refEntry) {
			t.Helper()
			if err := sameMemEntries(got, want); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			if m.Len() != ref.Len() {
				t.Fatalf("seed %d step %d after %s: Len %d, want %d", seed, step, op, m.Len(), ref.Len())
			}
			if err := checkIndex(m); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
		}
		type due struct {
			at   types.Time
			flow types.FlowID
		}
		var refresh []due
		now, middles, drains := types.Time(0), 0, 0
		for _, f := range flows {
			update(f, hdrs[rng.Intn(len(hdrs))], now)
		}
		check(0, "fill", nil, nil)
		for step := 1; step <= steps; step++ {
			now++
			// Every 100 steps a flow starts over with a chain of three
			// records, and half an idle period later its first and last
			// are refreshed: a sweep after that takes out the middle one.
			if step%100 == 0 {
				g := flows[rng.Intn(len(flows))]
				check(step, "EvictFlow", m.EvictFlow(g), ref.EvictFlow(g))
				for _, hdr := range hdrs[1:] {
					now++
					update(g, hdr, now)
				}
				refresh = append(refresh, due{now + idle/2, g})
			}
			for len(refresh) > 0 && refresh[0].at <= now {
				update(refresh[0].flow, hdrs[1], now)
				update(refresh[0].flow, hdrs[3], now)
				refresh = refresh[1:]
			}
			// Four times a run the memory drains to zero — by sweep, by
			// FIN or by Flush — and refills from the index's first size.
			if step%(steps/4) == steps/8 {
				switch drains++; drains % 3 {
				case 0:
					check(step, "EvictIdle (drain)", m.EvictIdle(now+idle), ref.EvictIdle(now+idle))
				case 1:
					var got []MemEntry
					var want []*refEntry
					for _, g := range flows {
						got, want = m.AppendEvictFlow(got, g), append(want, ref.EvictFlow(g)...)
					}
					check(step, "EvictFlow (drain)", got, want)
				default:
					check(step, "Flush", m.Flush(), ref.Flush())
				}
				if m.Len() != 0 || m.index != nil {
					t.Fatalf("seed %d step %d: a drained memory holds %d records, an index of %d", seed, step, m.Len(), len(m.index))
				}
				for _, g := range flows[:rng.Intn(len(flows))] {
					update(g, hdrs[rng.Intn(len(hdrs))], now)
				}
			}
			f := flows[rng.Intn(len(flows))]
			switch r := rng.Intn(100); {
			case r < 70:
				update(f, hdrs[rng.Intn(len(hdrs))], now)
			case r < 85:
				check(step, "EvictFlow", m.EvictFlow(f), ref.EvictFlow(f))
			case r < 95:
				check(step, "AppendLive", m.AppendLive(nil, &f, types.AllTime), ref.Live(&f, types.AllTime))
			default:
				want := ref.EvictIdle(now)
				for _, e := range want {
					older, newer := false, false
					for _, s := range ref.Live(&e.Flow, types.AllTime) {
						older, newer = older || s.STime < e.STime, newer || s.STime > e.STime
					}
					if older && newer {
						middles++
					}
				}
				check(step, "EvictIdle", m.EvictIdle(now), want)
			}
		}
		check(steps, "Flush", m.Flush(), ref.Flush())
		if middles == 0 || drains != 4 {
			t.Fatalf("seed %d: %d idle evictions out of a chain's middle, %d drains", seed, middles, drains)
		}
	}
}

// TestMemoryIndexReadersBesideGrowth: AppendLive readers — of one flow
// and of every flow — run beside a writer that opens flows until the
// index has doubled several times, then closes them all, so the memory
// drains and releases its index, and starts again. Every entry a reader
// receives is one flow's own record; under -race this is the proof that
// the readers and the index's growth and release share nothing unlocked.
func TestMemoryIndexReadersBesideGrowth(t *testing.T) {
	size := func(f types.FlowID) uint64 { return 64 + uint64(f.SrcPort%512) }
	m := NewMemory(0)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []MemEntry
			for {
				select {
				case <-stop:
					return
				default:
				}
				var of *types.FlowID
				if g == 0 {
					f := flowN(rng.Intn(600))
					of = &f
				}
				buf = m.AppendLive(buf[:0], of, types.AllTime)
				for _, e := range buf {
					if e.Bytes != e.Pkts*size(e.Flow) || (of != nil && e.Flow != *of) {
						t.Errorf("entry %+v is not the record of one flow (asked for %v)", e, of)
						return
					}
				}
			}
		}()
	}
	rounds := 40
	if testutil.RaceEnabled {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		open := 100 + 50*r%500
		for p := 0; p < 2; p++ {
			for i := 0; i < open; i++ {
				f := flowN(i)
				m.Update(types.Time(r), f, cherrypick.Header{}, int(size(f)), false)
			}
		}
		var out []MemEntry
		for i := 0; i < open; i++ {
			out = m.AppendEvictFlow(out, flowN(i))
		}
		if len(out) != open || m.Len() != 0 || m.index != nil {
			t.Fatalf("round %d: %d evicted of %d, %d left, index of %d", r, len(out), open, m.Len(), len(m.index))
		}
	}
	close(stop)
	readers.Wait()
	if got := m.AppendLive(nil, nil, types.AllTime); len(got) != 0 {
		t.Fatalf("a drained memory hands out %d records", len(got))
	}
}
