// Package tib implements PathDump's per-host storage engine (§3.2):
//
//   - the trajectory memory, which aggregates the packet stream into
//     per-path flow records (one record per ⟨flow, link-ID set⟩) and evicts
//     them on FIN/RST or after an idle timeout, like NetFlow;
//   - the trajectory cache, which memoises ⟨srcIP, link IDs⟩ → path so the
//     construction module rarely re-walks the topology;
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
	"sync"

	"pathdump/internal/cherrypick"
	"pathdump/internal/types"
)

// DefaultIdleTimeout is the eviction timeout for per-path flow records that
// stop receiving packets (the paper uses 5 seconds, like NetFlow).
const DefaultIdleTimeout = 5 * types.Second

// MemEntry is one per-path flow record still being accumulated: statistics
// on packets of the same flow that carried the same sampled link IDs.
type MemEntry struct {
	Flow  types.FlowID
	Hdr   cherrypick.Header
	STime types.Time
	ETime types.Time
	Bytes uint64
	Pkts  uint64
	Fin   bool
}

// hdrKey packs the trajectory header into a comparable, allocation-free
// key: the datapath updates the trajectory memory for every packet, so
// this path must not allocate. Three slots cover every header that can
// reach a host (a third VLAN tag punts the packet to the controller
// before delivery); longer headers truncate, which only merges records of
// unreachable header shapes.
type hdrKey struct {
	dscp uint8
	n    uint8
	v    [3]uint16
}

func makeHdrKey(hdr cherrypick.Header) hdrKey {
	k := hdrKey{dscp: hdr.DSCP, n: uint8(len(hdr.VLANs))}
	for i, val := range hdr.VLANs {
		if i == len(k.v) {
			break
		}
		k.v[i] = val
	}
	return k
}

type memKey struct {
	flow types.FlowID
	hdr  hdrKey
}

// Memory is the trajectory memory: the OVS-side aggregation stage of
// Figure 2. It is sized by active flows, not by packets. Methods are safe
// for concurrent use so queries (Live) can run while the datapath updates.
type Memory struct {
	mu      sync.RWMutex
	idle    types.Time
	entries map[memKey]*MemEntry
	// order keeps keys in insertion order for deterministic sweeps.
	order []memKey
}

// NewMemory builds a trajectory memory with the given idle timeout
// (0 selects DefaultIdleTimeout).
func NewMemory(idle types.Time) *Memory {
	if idle == 0 {
		idle = DefaultIdleTimeout
	}
	return &Memory{idle: idle, entries: make(map[memKey]*MemEntry)}
}

// Len returns the number of live per-path flow records.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Update creates or updates the per-path flow record for one packet and
// returns it. fin marks FIN/RST packets, which make the record eligible
// for immediate eviction.
func (m *Memory) Update(now types.Time, flow types.FlowID, hdr cherrypick.Header, size int, fin bool) *MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := memKey{flow: flow, hdr: makeHdrKey(hdr)}
	e := m.entries[k]
	if e == nil {
		e = &MemEntry{Flow: flow, Hdr: hdr.Clone(), STime: now}
		m.entries[k] = e
		m.order = append(m.order, k)
	}
	e.ETime = now
	e.Bytes += uint64(size)
	e.Pkts++
	if fin {
		e.Fin = true
	}
	return e
}

// EvictFlow removes and returns every record of one flow (invoked when a
// FIN or RST is seen).
func (m *Memory) EvictFlow(flow types.FlowID) []*MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*MemEntry
	kept := m.order[:0]
	for _, k := range m.order {
		if k.flow == flow {
			if e, ok := m.entries[k]; ok {
				out = append(out, e)
				delete(m.entries, k)
			}
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
	return out
}

// EvictIdle removes and returns every record idle since before now−idle.
func (m *Memory) EvictIdle(now types.Time) []*MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*MemEntry
	kept := m.order[:0]
	for _, k := range m.order {
		e, ok := m.entries[k]
		if !ok {
			continue
		}
		if now-e.ETime >= m.idle {
			out = append(out, e)
			delete(m.entries, k)
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
	return out
}

// Flush removes and returns everything (end of run).
func (m *Memory) Flush() []*MemEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*MemEntry, 0, len(m.entries))
	for _, k := range m.order {
		if e, ok := m.entries[k]; ok {
			out = append(out, e)
			delete(m.entries, k)
		}
	}
	m.order = m.order[:0]
	return out
}

// Live returns a snapshot of the current records without evicting them —
// the IPC lookup path that lets queries see data not yet exported to the
// TIB (§3.2). Entries are copied so readers never race with datapath
// updates to the live records.
func (m *Memory) Live() []MemEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]MemEntry, 0, len(m.entries))
	for _, k := range m.order {
		if e, ok := m.entries[k]; ok {
			out = append(out, *e)
		}
	}
	return out
}
