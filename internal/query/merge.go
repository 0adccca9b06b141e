package query

import (
	"fmt"
	"slices"

	"pathdump/internal/types"
)

// Merge folds another host's partial result into r. It implements the
// aggregation step of both the controller's direct query (fold at the
// root) and the multi-level aggregation tree (fold at interior nodes),
// inspired by Dremel/iMR (§3.2). It is the two-operand entry point of
// StreamMerger; a caller folding many children should keep one merger,
// whose dedup state then survives from child to child.
//
// Every op but one merges associatively and commutatively, so any tree
// shape yields the same final result. The exception is top-k: each fold
// sums entries of the same flow and then trims to k, so a flow whose
// entries are split across children can be trimmed away before its parts
// meet. The answer is independent of order and tree shape only when the
// children's flows are disjoint — which holds for host results (a flow's
// records live on one host), not for arbitrary inputs.
func (r *Result) Merge(o *Result, q Query) {
	NewStreamMerger(q, r, 1).Add(0, o)
}

// StreamMerger folds per-child partial results into a single result
// incrementally, in child index order: the caller adds child 0, then 1,
// and so on, and each is folded the moment it is added, so a caller that
// meets children as they land overlaps merge work with waiting on the
// rest. The output is the sequential index-order merge — the determinism
// the controller's partial-result accounting relies on.
//
// The merger keeps its op's dedup set or accumulator across Add calls,
// so folding child i costs O(|child i|), not O(|everything merged so
// far|). It never aliases or mutates a child's slices — transports may
// hand children out of shared or pooled memory, and the controller
// recycles every child after the merge — whereas dst, base contents
// included, is the caller's: the merger appends to it and updates it in
// place, and the merged result belongs to the caller alone. A top-k
// merge publishes a list drawn from the top-k pool (GetTopBuf): a caller
// done with it hands it back with PutTopBuf, and one that keeps it —
// the answer to a user — copies it out, so as not to hold a buffer
// sized for the fold rather than for the answer.
//
// A StreamMerger is single-consumer: feed Add from one goroutine. A nil
// child marks a slot that contributes nothing — a dropped straggler, a
// host cut off by the query deadline.
type StreamMerger struct {
	q    Query
	dst  *Result
	n    int // child slots
	next int // the slot Add takes next

	// Per-op fold state, seeded from dst's base by the first fold.
	seeded  bool
	pairs   types.FlowSet             // flows, paths, conformance
	flowIDs map[types.FlowID]struct{} // poor_tcp
	hists   map[types.LinkID]int      // fsd: link → index in dst.Hists
	cells   map[[2]types.SwitchID]int // matrix: ToR pair → index in dst.Matrix
	totals  flowTotals                // topk: the current top ≤k, indexed by flow
	// parts are the folded children's record slices, in index order. A
	// records merge is a concatenation, and children that trickle in one
	// by one would regrow (and recopy) the merged slice once each, so the
	// copy waits until every slot is consumed: dst.Records then grows
	// once, to its exact final size. Until Done, a records merger
	// therefore still reads its children — the one op for which they
	// must outlive Add.
	parts [][]types.Record
}

// NewStreamMerger prepares a streaming merge of n children into dst
// (whose current contents — e.g. the aggregating host's own result — are
// the merge base).
func NewStreamMerger(q Query, dst *Result, n int) *StreamMerger {
	dst.Op = q.Op
	return &StreamMerger{q: q, dst: dst, n: n}
}

// Add folds child i's result (nil = no contribution) into dst. i must be
// the next slot: children are added in index order, 0 first.
func (m *StreamMerger) Add(i int, r *Result) {
	if i != m.next {
		panic(fmt.Sprintf("query: StreamMerger.Add(%d): slot %d is next", i, m.next))
	}
	if r != nil {
		m.fold(r)
	}
	m.next++
	if !m.Done() {
		return
	}
	if m.totals.index != nil {
		// Nobody reads dst.Top before the last slot is consumed, so the
		// ranked list is published once, as it is: the merger is finished
		// with the array, which was never the base's.
		m.dst.Top = m.totals.list
	}
	if len(m.parts) > 0 {
		n := 0
		for _, part := range m.parts {
			n += len(part)
		}
		m.dst.Records = slices.Grow(m.dst.Records, n)
		for _, part := range m.parts {
			m.dst.Records = append(m.dst.Records, part...)
		}
		m.parts = nil
	}
}

// Done reports whether every child slot has been consumed.
func (m *StreamMerger) Done() bool { return m.next == m.n }

// Release hands the merger's working set — top-k's flow index — back to
// its pool, for a caller that is done with the merger once it is Done.
// dst, and the list a top-k merge published there, stay the caller's.
func (m *StreamMerger) Release() {
	indexBufs.Put(m.totals.index)
	m.totals.index, m.totals.list = nil, nil
}

// seed loads the op's fold state from dst's base contents.
func (m *StreamMerger) seed() {
	m.seeded = true
	d := m.dst
	switch m.q.Op {
	case OpFlows:
		for _, f := range d.Flows {
			m.pairs.Add(f.ID, f.Path)
		}
	case OpPaths:
		for _, p := range d.Paths {
			m.pairs.Add(types.FlowID{}, p)
		}
	case OpConformance:
		for _, v := range d.Violations {
			m.pairs.Add(v.Flow, v.Path)
		}
	case OpPoorTCP:
		m.flowIDs = make(map[types.FlowID]struct{}, len(d.FlowIDs))
		for _, f := range d.FlowIDs {
			m.flowIDs[f] = struct{}{}
		}
	case OpFSD:
		m.hists = make(map[types.LinkID]int, len(d.Hists))
		for i, h := range d.Hists {
			m.hists[h.Link] = i
		}
	case OpMatrix:
		m.cells = make(map[[2]types.SwitchID]int, len(d.Matrix))
		for i, c := range d.Matrix {
			m.cells[[2]types.SwitchID{c.SrcToR, c.DstToR}] = i
		}
	}
}

// fold merges one child into dst.
func (m *StreamMerger) fold(o *Result) {
	if !m.seeded {
		m.seed()
	}
	d := m.dst
	switch m.q.Op {
	case OpFlows:
		for _, f := range o.Flows {
			if _, fresh := m.pairs.Add(f.ID, f.Path); fresh {
				d.Flows = append(d.Flows, f)
			}
		}
	case OpPaths:
		for _, p := range o.Paths {
			if _, fresh := m.pairs.Add(types.FlowID{}, p); fresh {
				d.Paths = append(d.Paths, p)
			}
		}
	case OpCount:
		d.Bytes += o.Bytes
		d.Pkts += o.Pkts
	case OpDuration:
		d.Duration = max(d.Duration, o.Duration)
	case OpPoorTCP:
		for _, f := range o.FlowIDs {
			if _, ok := m.flowIDs[f]; !ok {
				m.flowIDs[f] = struct{}{}
				d.FlowIDs = append(d.FlowIDs, f)
			}
		}
	case OpFSD:
		for _, h := range o.Hists {
			i, ok := m.hists[h.Link]
			if !ok {
				m.hists[h.Link] = len(d.Hists)
				d.Hists = append(d.Hists, LinkHist{Link: h.Link, BinBytes: h.BinBytes, Bins: append([]uint64(nil), h.Bins...)})
				continue
			}
			bins := d.Hists[i].Bins
			for len(bins) < len(h.Bins) {
				bins = append(bins, 0)
			}
			for j, v := range h.Bins {
				bins[j] += v
			}
			d.Hists[i].Bins = bins
		}
	case OpTopK:
		m.foldTop(o.Top)
	case OpConformance:
		for _, v := range o.Violations {
			if _, fresh := m.pairs.Add(v.Flow, v.Path); fresh {
				d.Violations = append(d.Violations, v)
			}
		}
	case OpMatrix:
		for _, c := range o.Matrix {
			k := [2]types.SwitchID{c.SrcToR, c.DstToR}
			if i, ok := m.cells[k]; ok {
				d.Matrix[i].Bytes += c.Bytes
			} else {
				m.cells[k] = len(d.Matrix)
				d.Matrix = append(d.Matrix, c)
			}
		}
	case OpRecords:
		// Concatenated when the last slot is consumed (see parts).
		if m.parts == nil {
			m.parts = make([][]types.Record, 0, m.n)
		}
		m.parts = append(m.parts, o.Records)
	}
}

// foldTop combines the current ranked list with a child's and keeps the
// global top k. Entries for the same flow are summed first (a flow's
// records live on a single host, but spray subflows can surface the same
// flow twice during intermediate aggregation), then the list is ranked
// and trimmed — per fold, exactly as a pairwise merge would. The totals
// are the merger's own and are reused from child to child, and the child
// is copied into them, so the caller may recycle it once Add returns;
// dst.Top keeps the base's list until Add publishes the final one.
func (m *StreamMerger) foldTop(child []FlowBytes) {
	k := m.q.K
	if k <= 0 {
		k = 1000
	}
	t := &m.totals
	if t.index == nil {
		// First fold: sized once, for the most a fold ever holds —
		// everything, if the base and children like this one stay under
		// k, and otherwise the k survivors plus the child being added.
		n := len(m.dst.Top) + len(child)*(m.n-m.next)
		if n > k {
			n = k + len(child)
		}
		t.size(n)
		for _, fb := range m.dst.Top {
			t.add(fb.Flow, fb.Bytes, fb.Pkts)
		}
	}
	for _, fb := range child {
		t.add(fb.Flow, fb.Bytes, fb.Pkts)
	}
	// Ranking reorders the list and trimming cuts it: the survivors are
	// indexed afresh.
	t.list = topFlowBytes(t.list, k)
	t.reindex()
}
