package controller

import (
	"encoding/json"
	"testing"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// The account table runs on round numbers: 1 wire byte transfers in 1 ns,
// a host scan costs 100 ns + 1 ns per record, a merged item 10 ns, a
// round trip 1000 ns, and the query going down is 50 bytes.
var tableModel = CostModel{RTT: 1000, BandwidthBps: 8e9, ExecBase: 100, ExecPerRecord: 1, MergePerItem: 10}

const tableQWire = 50

// answered is a host that replied after scanning records, whose subtree
// result reached its parent as size bytes / items items.
func answered(records int, size int64, items int, children ...*treeNode) *treeNode {
	return &treeNode{isHost: true, answered: true, meta: QueryMeta{RecordsScanned: records}, size: size, items: items, children: children}
}

// dropped is a host the executor stopped waiting on; size/items describe
// what its surviving children (if any) sent up through it.
func dropped(size int64, items int, children ...*treeNode) *treeNode {
	return &treeNode{isHost: true, size: size, items: items, children: children}
}

func rootOf(children ...*treeNode) *treeNode { return &treeNode{children: children} }

// Four leaves with unlimited-schedule service times (RTT + scan + xfer of
// reply and query) A 1750, B 2350, C 1400, D 1250 and 2, 3, 1, 5 items.
func leafA() *treeNode { return answered(400, 200, 2) }
func leafB() *treeNode { return answered(900, 300, 3) }
func leafC() *treeNode { return answered(100, 150, 1) }
func leafD() *treeNode { return answered(0, 100, 5) }

// TestAccount is the §5.2 model as a unit test: hand-built executed trees,
// hand-computed response time, wire bytes and totals.
func TestAccount(t *testing.T) {
	segLeaf := func() *treeNode {
		n := answered(1000, 200, 2)
		n.meta.SegmentsScanned, n.meta.SegmentsPruned = 1, 3
		return n
	}
	cases := []struct {
		name        string
		model       func(*CostModel)
		root        *treeNode
		parallelism int
		hostCap     types.Time
		want        tally
	}{
		// avail = service; merge frontier 1770, 2380, 2390, 2440.
		{name: "direct/unlimited", root: rootOf(leafA(), leafB(), leafC(), leafD()),
			want: tally{t: 2440, wire: 950, hosts: 4}},
		// One worker serialises: avail 1750, 4100, 5500, 6750; the last
		// merge ends at 6750 + 5·10.
		{name: "direct/1-worker", root: rootOf(leafA(), leafB(), leafC(), leafD()), parallelism: 1,
			want: tally{t: 6800, wire: 950, hosts: 4}},
		// Greedy: A, B, C start at 0; D takes C's worker at 1400 and is
		// available at 2650; merge frontier 1770, 2380, 2390, 2700.
		{name: "direct/3-workers", root: rootOf(leafA(), leafB(), leafC(), leafD()), parallelism: 3,
			want: tally{t: 2700, wire: 950, hosts: 4}},
		// X scans (400) while A and B are in flight and merges them by
		// 2380; its 450-byte result reaches the root at 3880.
		{name: "two-level/unlimited", root: rootOf(answered(300, 450, 4, leafA(), leafB()), leafC()),
			want: tally{t: 3930, wire: 1300, hosts: 4}},
		// The bound applies at every node: T(X) = 4130, X available at
		// 5630, C queued behind it until 7030.
		{name: "two-level/1-worker", root: rootOf(answered(300, 450, 4, leafA(), leafB()), leafC()), parallelism: 1,
			want: tally{t: 7040, wire: 1300, hosts: 4}},
		// B dropped at a 2000 budget: charged exactly the budget, 0 reply
		// bytes (the query still went down), no merge.
		{name: "dropped-leaf/capped", root: rootOf(leafA(), dropped(0, 0), leafC(), leafD()), hostCap: 2000,
			want: tally{t: 2000, wire: 650, hosts: 3}},
		// The dropped host still holds the one worker for the budget.
		{name: "dropped-leaf/capped/1-worker", root: rootOf(leafA(), dropped(0, 0), leafC(), leafD()), parallelism: 1, hostCap: 2000,
			want: tally{t: 6450, wire: 650, hosts: 3}},
		// Cut off by the whole-query deadline with no per-host budget:
		// the drop costs a round trip and the query's transfer.
		{name: "dropped-leaf/uncapped", root: rootOf(leafA(), dropped(0, 0), leafC(), leafD()),
			want: tally{t: 1830, wire: 650, hosts: 3}},
		// The model's own budget wins over the wall-clock one and caps
		// A's 1750 too.
		{name: "dropped-leaf/model-cap", model: func(m *CostModel) { m.PerHostTimeout = 1500 },
			root: rootOf(leafA(), dropped(0, 0), leafC(), leafD()), hostCap: 2000,
			want: tally{t: 1580, wire: 650, hosts: 3}},
		// X dropped, its children's data still flows up through its
		// position: X waits the budget (2000), merges A and B (capped at
		// 2000) by 2050; the subtree itself is not capped.
		{name: "dropped-interior", root: rootOf(dropped(450, 4, leafA(), leafB()), leafC()), hostCap: 2000,
			want: tally{t: 3600, wire: 1300, hosts: 3}},
		// Nothing came back from X's subtree: three queries down, no
		// reply bytes, no merge; the root waits RTT + budget + xfer.
		{name: "dropped-subtree", root: rootOf(dropped(0, 0, dropped(0, 0), dropped(0, 0)), leafC()), hostCap: 2000,
			want: tally{t: 3050, wire: 350, hosts: 1}},
		// One of four segments scanned: a quarter of the records charged.
		{name: "segments/free-check", root: rootOf(segLeaf()),
			want: tally{t: 1620, wire: 250, hosts: 1, segScanned: 1, segPruned: 3}},
		{name: "segments/check", model: func(m *CostModel) { m.SegmentCheck = 7 }, root: rootOf(segLeaf()),
			want: tally{t: 1648, wire: 250, hosts: 1, segScanned: 1, segPruned: 3}},
		{name: "deadline/tighter", model: func(m *CostModel) { m.Deadline = 2000 },
			root: rootOf(leafA(), leafB(), leafC(), leafD()),
			want: tally{t: 2000, wire: 950, hosts: 4}},
		{name: "deadline/looser", model: func(m *CostModel) { m.Deadline = 5000 },
			root: rootOf(leafA(), leafB(), leafC(), leafD()),
			want: tally{t: 2440, wire: 950, hosts: 4}},
	}
	for _, tc := range cases {
		m := tableModel
		if tc.model != nil {
			tc.model(&m)
		}
		if got := m.account(tc.root, tableQWire, tc.parallelism, tc.hostCap); got != tc.want {
			t.Errorf("%s: account = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestAccountAllocs: replaying the schedule of a 128-host [4,4,8] tree
// at parallelism 2 keeps every node's worker clocks on the stack, so the
// accounting after each query allocates nothing.
func TestAccountAllocs(t *testing.T) {
	hosts := make([]types.HostID, 128)
	for i := range hosts {
		hosts[i] = types.HostID(i)
	}
	top, dfs := buildLevels(hosts, []int{4, 4, 8})
	for i := range dfs {
		dfs[i].answered, dfs[i].size, dfs[i].items = true, 100, 2
	}
	root := rootOf(top...)
	if got := testing.AllocsPerRun(100, func() { tableModel.account(root, tableQWire, 2, 0) }); got != 0 {
		t.Errorf("account over a [4,4,8] tree: %v allocations, want 0", got)
	}
}

// genRecords builds records shaped like the benchmark generator's
// (bench/gen.go): 10.x addresses, five-digit ports, timestamps on a 10 ms
// grid over a few seconds, 2..7-packet flows with the odd elephant, and
// fat-tree paths of the given length.
func genRecords(n, hops int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		path := make(types.Path, hops)
		for j := range path {
			path[j] = types.SwitchID((i*7 + j*13) % 80)
		}
		pkts := 2 + i%6
		if i%64 == 0 {
			pkts += 24
		}
		t0 := types.Time(1+i%256) * 10 * types.Millisecond
		recs[i] = types.Record{
			Flow: types.FlowID{
				SrcIP: types.IP(0x0a000002 | uint32(i%4)<<16 | uint32(i%2)<<8), DstIP: types.IP(0x0a030103),
				SrcPort: uint16(10000 + i*7919%50000), DstPort: uint16(10000 + i%50000), Proto: types.ProtoTCP,
			},
			Path: path, STime: t0, ETime: t0 + 5*types.Millisecond,
			Bytes: uint64((pkts+1)/2)*1500 + uint64(pkts/2)*64, Pkts: uint64(pkts),
		}
	}
	return recs
}

// TestMeasure pins the one place a result is sized: exact JSON length and
// item counts for ordinary replies, and for records the arithmetic sizer
// within 10 % of the JSON it stands in for, without allocating.
func TestMeasure(t *testing.T) {
	top := query.Result{Op: query.OpTopK, Top: []query.FlowBytes{{Bytes: 9}, {Bytes: 7}}}
	b, _ := json.Marshal(&top)
	if size, items := measure(&top); size != int64(len(b)) || size <= 0 || items != 2 {
		t.Errorf("topk: measure = %d bytes / %d items, want %d / 2", size, items, len(b))
	}
	fsd := query.Result{Op: query.OpFSD, Hists: []query.LinkHist{{Bins: []uint64{0, 3, 0, 1}}}}
	if _, items := measure(&fsd); items != 2 {
		t.Errorf("fsd: %d items, want the 2 occupied bins", items)
	}
	if size, items := measure(&query.Result{Op: query.OpCount, Bytes: 5}); size <= 0 || items != 1 {
		t.Errorf("scalar: measure = %d / %d, want a positive size and one item", size, items)
	}
	empty := query.Result{Op: query.OpRecords}
	b, _ = json.Marshal(&empty)
	if size, _ := measure(&empty); size != int64(len(b)) {
		t.Errorf("empty records reply: %d bytes, want %d", size, len(b))
	}

	for hops := 1; hops <= 6; hops++ {
		res := query.Result{Op: query.OpRecords, Records: genRecords(512, hops)}
		b, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		size, items := measure(&res)
		if items != 512 {
			t.Errorf("%d hops: %d items, want 512", hops, items)
		}
		if diff := float64(size)/float64(len(b)) - 1; diff < -0.10 || diff > 0.10 {
			t.Errorf("%d hops: sized %d bytes, JSON is %d (%+.1f%%)", hops, size, len(b), 100*diff)
		}
		if allocs := testing.AllocsPerRun(20, func() { measure(&res) }); allocs != 0 {
			t.Errorf("%d hops: measure allocates %.0f times on a records reply", hops, allocs)
		}
	}
}
