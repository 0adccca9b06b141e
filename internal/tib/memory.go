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

// slot is one slab cell: an entry, its flow's index hash and its links,
// which are slab indexes (the slab moves when it grows). Index 0 is no
// record: slab[0] is the sentinel that closes the insertion-order ring.
type slot struct {
	MemEntry
	h          uint32 // flow's hash (Memory.key): the sweep finds its index entry without rehashing
	chain      int32  // next record of the same flow, in arrival order
	prev, next int32  // insertion-order ring; a free slot's next is the free list
}

// flowSlot is one entry of the flow index: a flow's hash and the slab
// index of its first record; slot 0 marks the entry empty.
type flowSlot struct {
	h    uint32
	slot int32
}

// indexMin is the flow index's first size, a power of two like every
// size after it.
const indexMin = 8

// MemEntryBytes is what one open record occupies: its slab cell and its
// flow's index entry (hash, slot index). The slab's growth slack and the
// index's (it is kept at most 3/4 full) come on top.
const MemEntryBytes = int(unsafe.Sizeof(slot{}) + unsafe.Sizeof(flowSlot{}))

// Memory is the trajectory memory: the OVS-side aggregation stage of
// Figure 2. It is sized by active flows, not by packets, and a packet or
// a FIN costs one probe of the flow index: records live by value in a
// slab with a free list, the index — open-addressed, linear probing,
// at most 3/4 full — maps a flow's hash to its first record (its records
// are chained in arrival order — nearly always a chain of one), and a
// ring threads all records in insertion order, the order sweeps and
// AppendLive hand them out in. A probe compares hashes before it touches
// the slab, and a deletion shifts the entries behind it back, so the
// index holds no tombstones and flows that open and close never grow it.
// The hash is keyed per memory: five-tuples come from the network, and
// a fixed hash would let a sender pick flows that collide. A memory that
// drains gives its slab and its index back. Methods are safe for
// concurrent use (queries run beside the datapath) under one mutex —
// the datapath is the only writer, and readers are rare; entries go out
// as copies.
type Memory struct {
	mu    sync.Mutex
	idle  types.Time
	key   types.FlowKey // the flow index's hash key
	slab  []slot
	free  int32
	index []flowSlot
	flows int // occupied index entries
	n     int
}

// NewMemory builds a trajectory memory with the given idle timeout
// (0 selects DefaultIdleTimeout).
func NewMemory(idle types.Time) *Memory {
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	return &Memory{idle: idle, key: types.NewFlowKey()}
}

// Len returns the number of live per-path flow records.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// find returns the index position that holds flow (h is its hash), or the
// empty position that ends its probe. The index must not be empty.
func (m *Memory) find(flow types.FlowID, h uint32) int {
	mask := len(m.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		if e := m.index[i]; e.slot == 0 || e.h == h && m.slab[e.slot].Flow == flow {
			return i
		}
	}
}

// grow doubles the index (or makes its first), placing every entry by
// the hash it holds.
func (m *Memory) grow() {
	old := m.index
	m.index = make([]flowSlot, max(indexMin, 2*len(old)))
	mask := len(m.index) - 1
	for _, e := range old {
		if e.slot == 0 {
			continue
		}
		i := int(e.h) & mask
		for m.index[i].slot != 0 {
			i = (i + 1) & mask
		}
		m.index[i] = e
	}
}

// drop empties index position i by backward shift: each entry after it
// in the probe run that may sit at the hole (the hole lies between the
// entry's home and the entry) moves into it, leaving the hole where it
// was, until the run ends. Every probe then still reaches its flow
// without crossing an empty entry, and no tombstone is left.
func (m *Memory) drop(i int) {
	mask := len(m.index) - 1
	for j := (i + 1) & mask; m.index[j].slot != 0; j = (j + 1) & mask {
		if home := int(m.index[j].h) & mask; (j-home)&mask >= (j-i)&mask {
			m.index[i], i = m.index[j], j
		}
	}
	m.index[i] = flowSlot{}
	m.flows--
}

// Update creates or updates the per-path flow record for one packet. fin
// marks FIN/RST packets, which make the record eligible for immediate
// eviction.
func (m *Memory) Update(now types.Time, flow types.FlowID, hdr cherrypick.Header, size int, fin bool) {
	k, h := hdr.Pack(), uint32(m.key.Hash(flow))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index == nil {
		m.grow()
	}
	at := m.find(flow, h)
	i, last := m.index[at].slot, int32(0)
	for i != 0 && m.slab[i].Hdr != k {
		i, last = m.slab[i].chain, i
	}
	if i == 0 {
		i = m.insert(MemEntry{Flow: flow, Hdr: k, STime: now}, h)
		if last != 0 {
			m.slab[last].chain = i
		} else {
			m.index[at] = flowSlot{h: h, slot: i}
			if m.flows++; 4*m.flows > 3*len(m.index) {
				m.grow()
			}
		}
	}
	e := &m.slab[i]
	e.ETime = now
	e.Bytes += uint64(size)
	e.Pkts++
	e.Fin = e.Fin || fin
}

// insert places e, of a flow with hash h, in a free (or new) slot at the
// ring's tail.
func (m *Memory) insert(e MemEntry, h uint32) int32 {
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
	m.slab[i] = slot{MemEntry: e, h: h, prev: tail}
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
		m.slab, m.free, m.index = nil, 0, nil // idle: hold no slab and no index
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
	if m.n == 0 {
		return dst
	}
	at := m.find(flow, uint32(m.key.Hash(flow)))
	i := m.index[at].slot
	if i == 0 {
		return dst
	}
	m.drop(at)
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
	at := m.find(m.slab[i].Flow, m.slab[i].h)
	after := m.slab[i].chain
	switch j := m.index[at].slot; {
	case j != i:
		for m.slab[j].chain != i {
			j = m.slab[j].chain
		}
		m.slab[j].chain = after
	case after != 0:
		m.index[at].slot = after
	default:
		m.drop(at)
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
	m.slab, m.free, m.index, m.flows, m.n = nil, 0, nil, 0, 0
	return out
}

// AppendLive appends to dst, in arrival order, the current records that
// overlap tr — of one flow when flow is non-nil, found through the flow
// index at the cost of that flow's chain — without evicting them: the IPC
// lookup path that lets queries see data not yet exported to the TIB
// (§3.2). Entries are copied, under the lock, so readers never race with
// datapath updates to the live records.
func (m *Memory) AppendLive(dst []MemEntry, flow *types.FlowID, tr types.TimeRange) []MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return dst
	}
	if flow != nil {
		for i := m.index[m.find(*flow, uint32(m.key.Hash(*flow)))].slot; i != 0; i = m.slab[i].chain {
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
