package controller

import (
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// CostModel parameterises the query response-time accounting used by the
// §5.2 experiments. It mirrors the paper's testbed: a management network
// separate from the data network, per-record query execution cost at
// hosts, and per-item aggregation cost wherever results are merged.
type CostModel struct {
	// RTT is the management-network round trip per request (default 1 ms).
	RTT types.Time
	// BandwidthBps is the management link rate (default 1 Gbps).
	BandwidthBps int64
	// ExecBase is the fixed per-query host cost (default 2 ms — process
	// wakeup plus TIB session setup).
	ExecBase types.Time
	// ExecPerRecord is the per-TIB-record scan cost (default 400 ns).
	ExecPerRecord types.Time
	// MergePerItem is the per-result-item aggregation cost at whichever
	// node merges (default 4 µs — the paper's controller-side key-value
	// processing dominates large direct queries, §5.2).
	MergePerItem types.Time
	// PerHostTimeout is the modelled per-host budget (0 = none): a child
	// whose modelled service time exceeds it is charged exactly the
	// budget, because the real controller stops waiting then and drops
	// the straggler (Controller.PerHostTimeout). Hosts that were actually
	// dropped occupy a modelled worker for the budget and contribute no
	// merge cost. When unset but the controller has a wall-clock
	// PerHostTimeout, that value is used (both are nanosecond-granular).
	// Hedging needs no model knob of its own: modelled service times are
	// deterministic, so a duplicate request started HedgeAfter later can
	// never beat the original — hedging only wins against real-world
	// latency variance, which the §5.2 model deliberately excludes.
	PerHostTimeout types.Time
	// Deadline is the modelled per-query response deadline (0 = none).
	// The controller returns whatever has arrived by the deadline, so the
	// modelled response time is capped at it: a deadline of roughly one
	// slow-host round trip keeps a 64-host direct query interactive even
	// when the model would otherwise charge the full serial wall-clock.
	Deadline types.Time
	// SegmentCheck is the per-segment bound-intersection cost of the
	// host's time-partitioned TIB (0 = free). When a host reports segment
	// telemetry, its modelled scan cost charges ExecPerRecord only for
	// the un-pruned fraction of its records plus one SegmentCheck per
	// segment considered — the §5.2 term that makes narrow time windows
	// over large TIBs model as cheap as they now run.
	SegmentCheck types.Time
}

// DefaultCostModel returns the defaults above (no deadline).
func DefaultCostModel() CostModel {
	return CostModel{
		RTT:           types.Millisecond,
		BandwidthBps:  1e9,
		ExecBase:      2 * types.Millisecond,
		ExecPerRecord: 400,
		MergePerItem:  4 * types.Microsecond,
	}
}

// hostExec is the modelled execution time at one host. Without segment
// telemetry it is the classic §5.2 linear scan charge. With it, only the
// un-pruned fraction of the host's records is charged at ExecPerRecord,
// plus one SegmentCheck per partition considered — the cost-model mirror
// of whole-segment time pruning.
func (m CostModel) hostExec(meta QueryMeta) types.Time {
	t := m.ExecBase
	records := types.Time(meta.RecordsScanned)
	if total := meta.SegmentsScanned + meta.SegmentsPruned; total > 0 {
		records = records * types.Time(meta.SegmentsScanned) / types.Time(total)
		t += types.Time(total) * m.SegmentCheck
	}
	return t + records*m.ExecPerRecord
}

// tally is the model's reading of one executed subtree: t is T(node)
// below, the rest are totals.
type tally struct {
	t                            types.Time
	wire                         int64
	hosts, segScanned, segPruned int
}

// account computes the §5.2 numbers of an execution after the fact, from
// the tree the executor ran and left its outcomes on: per host whether it
// answered and with what QueryMeta, per child the size and item count of
// the subtree result its parent folded in. It replays the executor's two
// halves — children dispatched in index order onto parallelism workers
// (<= 0 = unlimited), each merged once it has arrived and the children
// before it have merged:
//
//	avail(child) = start + RTT + T(child) + xfer   (greedy schedule over
//	                                                parallelism workers)
//	mergeEnd(i)  = max(mergeEnd(i-1), avail(i)) + items(i)·MergePerItem
//	T(node)      = max(execLocal, max avail, mergeEnd(last))
//
// Wire bytes count the query (qWire) going down to every child and each
// result coming up. hostCap is the per-host budget charged when the model
// has no PerHostTimeout of its own (0 = none): a leaf's service caps at
// it, and a dropped host — on whichever path it was dropped — holds its
// worker for exactly the budget, sends 0 bytes back and costs no merge.
// The controller hands back whatever has arrived once the per-query
// Deadline fires, so the response time caps at it.
func (m CostModel) account(root *treeNode, qWire int64, parallelism int, hostCap types.Time) tally {
	if m.PerHostTimeout > 0 {
		hostCap = m.PerHostTimeout
	}
	out := m.subtree(root, qWire, parallelism, hostCap)
	if m.Deadline > 0 && out.t > m.Deadline {
		out.t = m.Deadline
	}
	return out
}

func (m CostModel) subtree(n *treeNode, qWire int64, parallelism int, hostCap types.Time) tally {
	// The node's own host scans while its children are in flight; its
	// result is the merge base. A dropped one aggregates without its own
	// data, having waited the per-host budget.
	var out tally
	localT := hostCap
	if !n.isHost {
		localT = 0
	} else if n.answered {
		localT = m.hostExec(n.meta)
		out.hosts, out.segScanned, out.segPruned = 1, n.meta.SegmentsScanned, n.meta.SegmentsPruned
	}
	// Each worker's next free time; nil = unlimited, start always 0. A
	// bound that fits the stack array costs no allocation per node.
	var stack [16]types.Time
	var workers []types.Time
	if parallelism > 0 && len(n.children) > 0 {
		if parallelism <= len(stack) {
			workers = stack[:parallelism]
		} else {
			workers = make([]types.Time, parallelism)
		}
	}
	childT, mergeEnd := localT, localT
	for _, ch := range n.children {
		o := m.subtree(ch, qWire, parallelism, hostCap)
		xfer := types.Time((ch.size + qWire) * 8 * int64(types.Second) / m.BandwidthBps)
		service := m.RTT + o.t + xfer
		if ch.isHost && len(ch.children) == 0 && hostCap > 0 && service > hostCap {
			// The budget bounds individual host requests, not whole
			// subtrees: the real controller stops waiting on a leaf then —
			// it either answered within the budget or was dropped at it.
			service = hostCap
		}
		var start types.Time
		if workers != nil {
			wi := 0
			for j := range workers {
				if workers[j] < workers[wi] {
					wi = j
				}
			}
			start = workers[wi]
			workers[wi] = start + service
		}
		avail := start + service
		childT = max(childT, avail)
		out.wire += o.wire + ch.size + qWire
		out.hosts += o.hosts
		out.segScanned += o.segScanned
		out.segPruned += o.segPruned
		if o.hosts > 0 {
			mergeEnd = max(mergeEnd, avail) + types.Time(ch.items)*m.MergePerItem
		}
	}
	out.t = max(childT, mergeEnd)
	return out
}

// A records reply is sized from the JSON field layout, without
// serialising it (the one reply large enough for that to cost more than
// the query itself). One record on the wire is
//
//	{"Flow":{"SrcIP":…,"DstIP":…,"SrcPort":…,"DstPort":…,"Proto":…},"Path":[…],"STime":…,"ETime":…,"Bytes":…,"Pkts":…},
//
// — 105 bytes of keys and punctuation around nine numbers: two 9-digit
// 10.x addresses, two 5-digit ports, a 1-digit protocol, two ~10-digit
// nanosecond timestamps, ~5 digits of bytes and ~2 of packets — plus a
// 2-digit switch ID and its comma per hop.
const (
	recordWireBase   = 105 + 2*9 + 2*5 + 1 + 2*10 + 5 + 2
	recordWirePerHop = 3
)

// measure sizes a subtree result as its parent receives it: its bytes on
// the management network (the unit of Figs. 11b/12b) and the key-value
// items the parent merges (the unit of aggregation cost). It is the one
// place a result is sized, and the parent calls it before the reply's
// pooled buffers are recycled. Every op but records is charged its exact
// JSON length. Histograms count their occupied bins: zero bins are never
// materialised as key-value pairs.
func measure(r *query.Result) (size int64, items int) {
	items = len(r.Flows) + len(r.Paths) + len(r.FlowIDs) + len(r.Top) +
		len(r.Violations) + len(r.Matrix) + len(r.Records)
	for _, h := range r.Hists {
		for _, b := range h.Bins {
			if b != 0 {
				items++
			}
		}
	}
	if items == 0 {
		items = 1 // scalar results still cost one update
	}
	if r.Op != query.OpRecords {
		return jsonLen(r), items // a Result always marshals; a failure would size as 0
	}
	size = int64(len(`{"op":"records"}`))
	if len(r.Records) > 0 {
		size += int64(len(`,"records":[]`)) - 1 // the last record has no comma
	}
	for i := range r.Records {
		size += recordWireBase + recordWirePerHop*int64(len(r.Records[i].Path))
	}
	return size, items
}
