package controller

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"pathdump/internal/query"
	"pathdump/internal/testutil"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// pooledTopK answers a top-k as the rpc transport does: each host's list
// drawn from the top-k pool, as a decoder draws it, and the round's
// replies in an array from GetBatchReplies.
type pooledTopK struct{ cannedTransport }

func (p pooledTopK) QueryMany(_ context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := GetBatchReplies(len(hosts))
	for i, h := range hosts {
		top := query.GetTopBuf(p.k)
		for j := 0; j < p.k; j++ {
			top = append(top, query.FlowBytes{
				Flow:  types.FlowID{SrcIP: types.IP(uint32(h)<<16 | uint32(j)), DstIP: 1, SrcPort: uint16(j), DstPort: 80, Proto: 6},
				Bytes: uint64(1000 + int(h)*7 + j),
			})
		}
		out[i] = BatchReply{Host: h, Result: query.Result{Op: q.Op, Top: top}, Meta: QueryMeta{RecordsScanned: p.records}}
	}
	return out, nil
}

// TestTreeTopKAllocsUnderOneReplyArray: a 128-host top-k through the
// [4,4,8] tree — the query-fanout session's first step — allocates less
// per execution than one reply array of its size. The array itself, the
// hosts' lists and the 21 mergers' lists and indexes all come back to
// their pools, so what is left is the tree, the slots, the spans and the
// answer; an execution that made its array again, or a merger that made
// its list, would cost at least that much more on its own.
func TestTreeTopKAllocsUnderOneReplyArray(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation ceilings over pooled memory measure the race detector, not the code")
	}
	topo, err := topology.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := hostRange(128)
	ctrl := New(topo, pooledTopK{cannedTransport{k: 2, records: 4}}, nil)
	ctrl.Parallelism = 8
	q := query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink}
	exec := func() {
		res, stats, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, []int{4, 4, 8})
		if err != nil || stats.Hosts != len(hosts) || len(res.Top) != 100 {
			t.Fatalf("%d of %d hosts answered, %d top flows, err %v", stats.Hosts, len(hosts), len(res.Top), err)
		}
	}
	for i := 0; i < 10; i++ {
		exec() // fill the pools
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exec()
	}
	runtime.ReadMemStats(&after)
	perExec := (after.TotalAlloc - before.TotalAlloc) / runs
	array := uint64(len(hosts)) * uint64(unsafe.Sizeof(BatchReply{}))
	t.Logf("%d B allocated per execution; one reply array is %d B", perExec, array)
	if perExec >= array {
		t.Errorf("an execution allocates %d B, at least its reply array's %d B", perExec, array)
	}
}
