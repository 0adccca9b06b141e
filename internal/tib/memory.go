// Package tib implements PathDump's per-host storage engine (§3.2):
//
//   - the trajectory memory, which aggregates the packet stream into
//     per-path flow records (one per ⟨flow, link-ID set⟩, in a slab indexed
//     by flow) and evicts them on FIN/RST or after an idle timeout;
//   - the trajectory cache, which memoises ⟨srcIP, packed link IDs⟩ → path
//     so the construction module rarely re-walks the topology;
//   - the Trajectory Information Base (TIB) itself: the indexed store of
//     ⟨flow ID, path, stime, etime, #bytes, #pkts⟩ records that the host
//     API queries slice and dice.
//
// The paper builds the TIB on MongoDB; here it is a native in-memory store
// with flow and link indexes whose sealed segments are immutable columnar
// blocks — the same bytes in RAM, in a cold file and in a snapshot — which
// preserves every queried behaviour while keeping the module dependency-free.
package tib

import (
	"slices"
	"sync"
	"unsafe"

	"pathdump/internal/cherrypick"
	"pathdump/internal/types"
)

// DefaultIdleTimeout is the eviction timeout for per-path flow records that
// stop receiving packets (the paper uses 5 seconds, like NetFlow).
const DefaultIdleTimeout = 5 * types.Second

// MemEntry is one per-path flow record still being accumulated: statistics
// on packets of the same flow that carried the same sampled link IDs. The
// header is held packed, so a copy of an entry owns everything it shows.
type MemEntry struct {
	Flow  types.FlowID
	Hdr   cherrypick.Packed
	STime types.Time
	ETime types.Time
	Bytes uint64
	Pkts  uint64
	Fin   bool
}

// slot is one slab cell: an entry and its links, which are slab indexes
// (the slab moves when it grows). Index 0 is no record: slab[0] is the
// sentinel that closes the insertion-order ring.
type slot struct {
	MemEntry
	chain      int32 // next record of the same flow, in arrival order
	prev, next int32 // insertion-order ring; a free slot's next is the free list
}

// MemEntryBytes is what one open record occupies: its slab cell and its
// flow's index entry (key, slot index, the map's control byte). The slab's
// and the map's growth slack comes on top.
const MemEntryBytes = int(unsafe.Sizeof(slot{})+unsafe.Sizeof(types.FlowID{})) + 4 + 1

// Memory is the trajectory memory: the OVS-side aggregation stage of
// Figure 2. It is sized by active flows, not by packets, and a packet or
// a FIN costs one map probe: records live by value in a slab with a free
// list, flows maps a flow to its first record (its records are chained in
// arrival order — nearly always a chain of one), and a ring threads all
// records in insertion order, the order sweeps and AppendLive hand them
// out in. A memory that drains gives its slab back. Methods are safe for
// concurrent use (queries run beside the datapath); entries go out as
// copies.
type Memory struct {
	mu    sync.RWMutex
	idle  types.Time
	slab  []slot
	free  int32
	flows map[types.FlowID]int32
	n     int
}

// NewMemory builds a trajectory memory with the given idle timeout
// (0 selects DefaultIdleTimeout).
func NewMemory(idle types.Time) *Memory {
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	return &Memory{idle: idle, flows: make(map[types.FlowID]int32)}
}

// Len returns the number of live per-path flow records.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// Update creates or updates the per-path flow record for one packet. fin
// marks FIN/RST packets, which make the record eligible for immediate
// eviction.
func (m *Memory) Update(now types.Time, flow types.FlowID, hdr cherrypick.Header, size int, fin bool) {
	k := hdr.Pack()
	m.mu.Lock()
	defer m.mu.Unlock()
	i, last := m.flows[flow], int32(0)
	for i != 0 && m.slab[i].Hdr != k {
		i, last = m.slab[i].chain, i
	}
	if i == 0 {
		i = m.insert(MemEntry{Flow: flow, Hdr: k, STime: now})
		if last == 0 {
			m.flows[flow] = i
		} else {
			m.slab[last].chain = i
		}
	}
	e := &m.slab[i]
	e.ETime = now
	e.Bytes += uint64(size)
	e.Pkts++
	e.Fin = e.Fin || fin
}

// insert places e in a free (or new) slot at the ring's tail.
func (m *Memory) insert(e MemEntry) int32 {
	if len(m.slab) == 0 {
		m.slab = make([]slot, 1, 2) // the sentinel (an empty ring) and the first cell
	}
	i := m.free
	if i != 0 {
		m.free = m.slab[i].next
	} else {
		i = int32(len(m.slab))
		m.slab = append(m.slab, slot{})
	}
	tail := m.slab[0].prev
	m.slab[i] = slot{MemEntry: e, prev: tail}
	m.slab[tail].next, m.slab[0].prev = i, i
	m.n++
	return i
}

// remove takes slot i out of the ring, frees it and returns the entry it
// held; the flow index and the chain are the caller's to fix.
func (m *Memory) remove(i int32) MemEntry {
	s := m.slab[i]
	m.slab[s.prev].next, m.slab[s.next].prev = s.next, s.prev
	m.slab[i] = slot{next: m.free}
	m.free = i
	if m.n--; m.n == 0 {
		m.slab, m.free = nil, 0 // idle: hold no slab
	}
	return s.MemEntry
}

// oldest returns the first slot in insertion order, 0 when there is none.
func (m *Memory) oldest() int32 {
	if m.n == 0 {
		return 0
	}
	return m.slab[0].next
}

// EvictFlow removes and returns every record of one flow (invoked when a
// FIN or RST is seen).
func (m *Memory) EvictFlow(flow types.FlowID) []MemEntry {
	return m.AppendEvictFlow(nil, flow)
}

// AppendEvictFlow is EvictFlow appending to dst, in arrival order: a
// datapath that reuses its buffer evicts without allocating.
func (m *Memory) AppendEvictFlow(dst []MemEntry, flow types.FlowID) []MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.flows[flow]
	delete(m.flows, flow)
	for i != 0 {
		next := m.slab[i].chain
		dst = append(dst, m.remove(i))
		i = next
	}
	return dst
}

// EvictIdle removes and returns every record idle since before now−idle.
func (m *Memory) EvictIdle(now types.Time) []MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []MemEntry
	for i := m.oldest(); i != 0; {
		next := m.slab[i].next
		if now-m.slab[i].ETime >= m.idle {
			m.unchain(i)
			out = append(out, m.remove(i))
		}
		i = next
	}
	return out
}

// unchain takes slot i out of its flow's chain, dropping the flow from
// the index with its last record.
func (m *Memory) unchain(i int32) {
	flow, after := m.slab[i].Flow, m.slab[i].chain
	j := m.flows[flow]
	switch {
	case j != i:
		for m.slab[j].chain != i {
			j = m.slab[j].chain
		}
		m.slab[j].chain = after
	case after != 0:
		m.flows[flow] = after
	default:
		delete(m.flows, flow)
	}
}

// Flush removes and returns everything (end of run).
func (m *Memory) Flush() []MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemEntry, 0, m.n)
	for i := m.oldest(); i != 0; i = m.slab[i].next {
		out = append(out, m.slab[i].MemEntry)
	}
	clear(m.flows)
	m.slab, m.free, m.n = nil, 0, 0
	return out
}

// AppendLive appends to dst, in arrival order, the current records that
// overlap tr — of one flow when flow is non-nil, found through the flow
// index at the cost of that flow's chain — without evicting them: the IPC
// lookup path that lets queries see data not yet exported to the TIB
// (§3.2). Entries are copied, under the read lock, so readers never race
// with datapath updates to the live records.
func (m *Memory) AppendLive(dst []MemEntry, flow *types.FlowID, tr types.TimeRange) []MemEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if flow != nil {
		for i := m.flows[*flow]; i != 0; i = m.slab[i].chain {
			if e := &m.slab[i].MemEntry; tr.Overlaps(e.STime, e.ETime) {
				dst = append(dst, *e)
			}
		}
		return dst
	}
	dst = slices.Grow(dst, m.n) // a fresh buffer is made once, not doubled under the lock
	for i := m.oldest(); i != 0; i = m.slab[i].next {
		if e := &m.slab[i].MemEntry; tr.Overlaps(e.STime, e.ETime) {
			dst = append(dst, *e)
		}
	}
	return dst
}
