package tib

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pathdump/internal/cherrypick"
	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// refMemory is the trajectory memory as it was before the slab: a map of
// heap entries keyed by ⟨flow, header⟩ plus a slice of keys in insertion
// order, with every eviction a walk over all of them. It is the
// reference the slab is held to — same entries, same order, from every
// call. One thing differs from the code it was lifted from: the key
// holds the whole header (as a string), where the original truncated to
// three VLAN tags and so merged longer headers that began alike.
type refMemory struct {
	idle    types.Time
	entries map[refKey]*refEntry
	order   []refKey
}

type refKey struct {
	flow types.FlowID
	hdr  string
}

type refEntry struct {
	Flow         types.FlowID
	Hdr          cherrypick.Header
	STime, ETime types.Time
	Bytes, Pkts  uint64
	Fin          bool
}

func newRefMemory(idle types.Time) *refMemory {
	return &refMemory{idle: idle, entries: make(map[refKey]*refEntry)}
}

func (m *refMemory) Len() int { return len(m.entries) }

func (m *refMemory) Update(now types.Time, flow types.FlowID, hdr cherrypick.Header, size int, fin bool) {
	k := refKey{flow: flow, hdr: fmt.Sprint(hdr.DSCP, hdr.VLANs)}
	e := m.entries[k]
	if e == nil {
		e = &refEntry{Flow: flow, Hdr: cherrypick.Header{DSCP: hdr.DSCP, VLANs: append([]uint16(nil), hdr.VLANs...)}, STime: now}
		m.entries[k] = e
		m.order = append(m.order, k)
	}
	e.ETime = now
	e.Bytes += uint64(size)
	e.Pkts++
	if fin {
		e.Fin = true
	}
}

// evict removes and returns, in insertion order, the entries gone says
// to drop.
func (m *refMemory) evict(gone func(refKey, *refEntry) bool) []*refEntry {
	var out []*refEntry
	kept := m.order[:0]
	for _, k := range m.order {
		if e := m.entries[k]; gone(k, e) {
			out = append(out, e)
			delete(m.entries, k)
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
	return out
}

func (m *refMemory) EvictFlow(flow types.FlowID) []*refEntry {
	return m.evict(func(k refKey, _ *refEntry) bool { return k.flow == flow })
}

func (m *refMemory) EvictIdle(now types.Time) []*refEntry {
	return m.evict(func(_ refKey, e *refEntry) bool { return now-e.ETime >= m.idle })
}

func (m *refMemory) Flush() []*refEntry {
	return m.evict(func(refKey, *refEntry) bool { return true })
}

// Live is AppendLive the naive way: every entry in insertion order,
// tested against the flow (nil: any) and the time range.
func (m *refMemory) Live(flow *types.FlowID, tr types.TimeRange) []*refEntry {
	var out []*refEntry
	for _, k := range m.order {
		if e := m.entries[k]; (flow == nil || e.Flow == *flow) && tr.Overlaps(e.STime, e.ETime) {
			out = append(out, e)
		}
	}
	return out
}

// sameMemEntries compares what the slab handed out with the reference's
// answer, position by position.
func sameMemEntries(got []MemEntry, want []*refEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Flow != w.Flow || !reflect.DeepEqual(g.Hdr.Header(), w.Hdr) || g.STime != w.STime ||
			g.ETime != w.ETime || g.Bytes != w.Bytes || g.Pkts != w.Pkts || g.Fin != w.Fin {
			return fmt.Errorf("position %d: %+v (header %v), want %+v", i, g, g.Hdr.Header(), *w)
		}
	}
	return nil
}

// TestMemoryMatchesReference drives the slab and the reference with the
// same seeded operation sequences — several paths per flow (some told
// apart only by a fourth or fifth tag, or by DSCP), flows that close and
// re-open, idle sweeps that take records out of the middle of a chain,
// drains that release the slab and refills that reuse freed slots — and
// demands the same Len after every step and the same entries in the same
// order from every call, AppendLive's by-flow and by-range lookups among
// them.
func TestMemoryMatchesReference(t *testing.T) {
	hdrs := []cherrypick.Header{
		{}, {DSCP: 3}, {VLANs: []uint16{1}}, {DSCP: 3, VLANs: []uint16{1}}, {VLANs: []uint16{1, 2}},
		{VLANs: []uint16{1, 2, 3}}, {VLANs: []uint16{1, 2, 3, 4}}, {VLANs: []uint16{1, 2, 3, 5}},
		{VLANs: []uint16{1, 2, 3, 4, 0}}, {VLANs: []uint16{0}}, {VLANs: []uint16{0, 0}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const idle = 50
		m, ref := NewMemory(idle), newRefMemory(idle)
		nflows := 3 + rng.Intn(40)
		now := types.Time(0)
		for step := 0; step < 6000; step++ {
			now += types.Time(rng.Intn(4))
			flow := flowN(rng.Intn(nflows))
			var err error
			op := "Update"
			switch r := rng.Intn(100); {
			case r < 70:
				hdr, size, fin := hdrs[rng.Intn(len(hdrs))], 40+rng.Intn(1460), rng.Intn(16) == 0
				m.Update(now, flow, hdr, size, fin)
				ref.Update(now, flow, hdr, size, fin)
			case r < 84:
				op = "EvictFlow"
				err = sameMemEntries(m.EvictFlow(flow), ref.EvictFlow(flow))
			case r < 88:
				op = "EvictIdle"
				err = sameMemEntries(m.EvictIdle(now), ref.EvictIdle(now))
			case r < 89:
				op = "Flush"
				err = sameMemEntries(m.Flush(), ref.Flush())
			default:
				// The lookup a query's predicate pushes down: one flow or
				// all, the whole memory's life or a window of it, appended
				// behind whatever the caller's buffer already held.
				op = "AppendLive"
				var of *types.FlowID
				if rng.Intn(2) == 0 {
					of = &flow
				}
				tr := types.AllTime
				if rng.Intn(2) == 0 {
					tr.From = types.Time(rng.Int63n(int64(now) + 1))
					tr.To = tr.From + types.Time(rng.Intn(2*idle))
				}
				prefix := []MemEntry{{Pkts: uint64(step)}, {Bytes: 7}}[:rng.Intn(3)]
				got := m.AppendLive(slices.Clone(prefix), of, tr)
				if !slices.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("seed %d step %d: AppendLive rewrote its destination's prefix: %+v, was %+v", seed, step, got[:len(prefix)], prefix)
				}
				err = sameMemEntries(got[len(prefix):], ref.Live(of, tr))
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s(%v): %v", seed, step, op, flow, err)
			}
			if m.Len() != ref.Len() {
				t.Fatalf("seed %d step %d after %s: Len %d, want %d", seed, step, op, m.Len(), ref.Len())
			}
		}
		if err := sameMemEntries(m.Flush(), ref.Flush()); err != nil {
			t.Fatalf("seed %d final Flush: %v", seed, err)
		}
	}
}

// TestMemoryHandedOutEntriesAreCopies: while one goroutine opens, feeds
// and closes flows fast enough that every slot is reused many times,
// readers take AppendLive snapshots and check them twice — on
// receipt and after the writer has moved on. Every flow sends packets of
// one size with one header, so an entry that aliased a reused slot (or
// was torn by a concurrent Update) shows as bytes that are not packets ×
// that flow's size, or as another flow's header. Run under -race this is
// also the proof that readers and the datapath share nothing unlocked.
func TestMemoryHandedOutEntriesAreCopies(t *testing.T) {
	const flows = 64
	size := func(f types.FlowID) uint64 { return 100 + uint64(f.SrcPort) }
	hdr := func(f types.FlowID) cherrypick.Header {
		return cherrypick.Header{VLANs: []uint16{f.SrcPort, f.SrcPort + 1, 7, 9}[:1+f.SrcPort%4]}
	}
	check := func(es []MemEntry) error {
		for _, e := range es {
			if e.Bytes != e.Pkts*size(e.Flow) || e.Hdr != hdr(e.Flow).Pack() {
				return fmt.Errorf("entry %+v is not one flow's record", e)
			}
		}
		return nil
	}
	m := NewMemory(0)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				es := m.AppendLive(nil, nil, types.AllTime)
				held := append([]MemEntry(nil), es...)
				if err := check(es); err != nil {
					t.Error(err)
					return
				}
				m.Len() // takes the lock: the writer gets a turn
				if !slices.Equal(es, held) {
					t.Errorf("a handed-out snapshot changed: %+v, was %+v", es, held)
					return
				}
			}
		}()
	}
	rounds := 20000
	if testutil.RaceEnabled {
		rounds = 4000
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rounds; i++ {
		f := flowN(rng.Intn(flows))
		fin := rng.Intn(6) == 0
		m.Update(types.Time(i), f, hdr(f), int(size(f)), fin)
		if fin {
			if err := check(m.EvictFlow(f)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
}

// TestMemorySteadyStateAllocatesNothing holds the memory at the §5.3
// load point — 4,000 resident flows — and then closes every one of them
// while opening a new flow in its place, the way ingest-steady's traffic
// does: slots come off the free list, the flow index reuses its buckets
// and evictions land in the caller's buffer, so 4,000 FINs and 4,000
// opens allocate nothing. (The memory never empties here: a memory that
// does drain hands its slab back on purpose and pays for a new one.)
func TestMemorySteadyStateAllocatesNothing(t *testing.T) {
	const resident = 4000
	m := NewMemory(0)
	hdr := cherrypick.Header{VLANs: []uint16{5, 6}}
	for i := 0; i < 2*resident; i++ {
		m.Update(0, flowN(i), hdr, 100, false)
	}
	buf := make([]MemEntry, 0, 4)
	for i := 0; i < resident; i++ { // leaves flows [resident, 2·resident) and a free list as long
		buf = m.AppendEvictFlow(buf[:0], flowN(i))
	}
	gen := 0
	allocs := testing.AllocsPerRun(5, func() {
		old, fresh := resident+gen*resident, resident+(gen+1)*resident
		gen++
		for i := 0; i < resident; i++ {
			m.Update(1, flowN(fresh+i), hdr, 100, false)
			m.Update(2, flowN(old+i), hdr, 100, true)
			if buf = m.AppendEvictFlow(buf[:0], flowN(old+i)); len(buf) != 1 || buf[0].Pkts != 2 {
				t.Fatalf("evicted %+v, want the flow's one record of two packets", buf)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 4,000 closed and 4,000 opened flows, want 0", allocs)
	}
	if m.Len() != resident {
		t.Errorf("Len = %d, want %d", m.Len(), resident)
	}
	m.Flush()
	if m.slab != nil {
		t.Error("a drained memory still holds its slab")
	}
}
