package agent

import (
	"pathdump/internal/cherrypick"
	"pathdump/internal/types"
)

// The paper notes that "extending PathDump to store and query at
// per-packet granularity remains an intriguing future direction" (§2.2):
// the shipped system aggregates per path to avoid storage bottlenecks.
// This file implements that extension as an opt-in bounded ring — recent
// packets keep their individual trajectories and timestamps, the
// aggregate TIB stays the primary store, and memory is strictly capped.

// PacketRecord is one logged packet with its reconstructed trajectory.
type PacketRecord struct {
	Flow types.FlowID
	Path types.Path
	At   types.Time
	Size int
}

// packetRing is a fixed-capacity circular log of raw packet headers;
// paths are constructed lazily on read through the trajectory cache.
type packetRing struct {
	entries []packetEntry
	next    int
	full    bool
}

type packetEntry struct {
	flow types.FlowID
	hdr  cherrypick.Packed
	at   types.Time
	size int
}

func newPacketRing(capacity int) *packetRing {
	return &packetRing{entries: make([]packetEntry, capacity)}
}

func (r *packetRing) add(e packetEntry) {
	r.entries[r.next] = e
	r.next++
	if r.next == len(r.entries) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns entries oldest-first.
func (r *packetRing) snapshot() []packetEntry {
	if !r.full {
		return append([]packetEntry(nil), r.entries[:r.next]...)
	}
	out := make([]packetEntry, 0, len(r.entries))
	out = append(out, r.entries[r.next:]...)
	out = append(out, r.entries[:r.next]...)
	return out
}

// RecentPackets returns the per-packet log (oldest first) with
// trajectories constructed; packets whose headers no longer decode are
// skipped. Empty unless Config.PacketLog enabled the ring.
func (a *Agent) RecentPackets() []PacketRecord {
	if a.plog == nil {
		return nil
	}
	entries := a.plog.snapshot()
	out := make([]PacketRecord, 0, len(entries))
	for _, e := range entries {
		p, err := a.construct(e.flow.SrcIP, e.hdr)
		if err != nil {
			continue
		}
		out = append(out, PacketRecord{Flow: e.flow, Path: p, At: e.at, Size: e.size})
	}
	return out
}
