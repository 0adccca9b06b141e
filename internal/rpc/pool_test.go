package rpc

import (
	"context"
	"reflect"
	"testing"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// keptArrays is an HTTPTransport that remembers the reply array of its
// last batched round, to look at once the controller has handed it back.
type keptArrays struct {
	*HTTPTransport
	last []controller.BatchReply
}

func (k *keptArrays) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]controller.BatchReply, error) {
	replies, err := k.HTTPTransport.QueryMany(ctx, hosts, q, parallel)
	k.last = replies
	return replies, err
}

// TestAnswersOutliveTheirReplyArrays: the answers an execution hands its
// caller share nothing with what the execution recycles — the reply array
// of its batched round, the replies' pooled top-k lists and record
// buffers, the mergers' pooled lists. A fleet of 16 hosts on 4
// MultiAgentServer daemons answers top-k through a [2,2] tree and direct,
// then flows, paths and records, each checked against the hosts' own
// answers merged in host order — their flows are disjoint, so a top-k
// through any tree equals that too. 50 more executions over other links,
// flows and windows then reuse every pool; the answers the caller still
// holds must read as they did when they returned. After every execution
// the handed-back array must hold only zero slots: a slot that kept its
// reply would pin its buffers in the pool.
func TestAnswersOutliveTheirReplyArrays(t *testing.T) {
	topo, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	const nrec = 40
	urls, hosts, targets := loopbackFleet(t, 4, 4, nrec, nil)
	kept := &keptArrays{HTTPTransport: &HTTPTransport{URLs: urls}}
	ctrl := controller.New(topo, kept, nil)
	ctrl.Parallelism = 4
	reference := func(q query.Query) string {
		var want query.Result
		for _, h := range hosts {
			r, err := targets[h].ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want.Merge(&r, q)
		}
		return canon(t, want)
	}

	exec := func(q query.Query, fanouts []int) query.Result {
		t.Helper()
		kept.last = nil
		res, stats, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, fanouts)
		if err != nil || stats.Hosts != len(hosts) {
			t.Fatalf("%s, fanouts %v: %d of %d hosts answered, err %v", q.Op, fanouts, stats.Hosts, len(hosts), err)
		}
		if len(kept.last) != len(hosts) {
			t.Fatalf("%s: the batched round returned %d replies for %d hosts", q.Op, len(kept.last), len(hosts))
		}
		for i, rep := range kept.last {
			if !reflect.ValueOf(rep).IsZero() {
				t.Fatalf("%s, fanouts %v: slot %d of the handed-back array is not zero (host %v, op %q)", q.Op, fanouts, i, rep.Host, rep.Result.Op)
			}
		}
		if cap(res.Top) != len(res.Top) {
			t.Fatalf("%s, fanouts %v: the top-k answer has room for %d entries, holds %d: a pooled list, not the caller's own", q.Op, fanouts, cap(res.Top), len(res.Top))
		}
		if got, want := canon(t, res), reference(q); got != want {
			t.Fatalf("%s, fanouts %v: answer differs from the hosts' merged answers\ngot  %s\nwant %s", q.Op, fanouts, got, want)
		}
		return res
	}

	// seedStore's records at host h run over links ⟨h, h+100⟩ and
	// ⟨h+100, i%7⟩, record i from i ms to i+3 ms.
	hostLink := func(h types.HostID) types.LinkID {
		return types.LinkID{A: types.SwitchID(h), B: types.SwitchID(h + 100)}
	}
	window := func(lo, hi int) types.TimeRange {
		return types.TimeRange{From: types.Time(lo) * types.Millisecond, To: types.Time(hi) * types.Millisecond}
	}
	held := []struct {
		q       query.Query
		fanouts []int
	}{
		{query.Query{Op: query.OpTopK, K: 10, Link: types.AnyLink}, []int{2, 2}},
		{query.Query{Op: query.OpTopK, K: 10, Link: types.AnyLink}, nil},
		{query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: types.AllTime}, nil},
		{query.Query{Op: query.OpPaths, Flow: seedFlow(int(hosts[5]), 3), Link: types.AnyLink, Range: types.AllTime}, nil},
		{query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}, nil},
	}
	answers := make([]query.Result, len(held))
	copies := make([]string, len(held))
	for i, h := range held {
		answers[i] = exec(h.q, h.fanouts)
		copies[i] = canon(t, answers[i])
		if copies[i] == canon(t, query.Result{Op: h.q.Op}) {
			t.Fatalf("%s answer is empty", h.q.Op)
		}
	}

	for i := 0; i < 50; i++ {
		h := hosts[i%len(hosts)]
		var q query.Query
		switch i % 4 {
		case 0:
			q = query.Query{Op: query.OpTopK, K: 3 + i%5, Link: hostLink(h), Range: window(i%nrec, nrec)}
		case 1:
			q = query.Query{Op: query.OpFlows, Link: hostLink(h), Range: window(0, 1+i%nrec)}
		case 2:
			q = query.Query{Op: query.OpPaths, Flow: seedFlow(int(h), i%nrec), Link: types.AnyLink, Range: window(i%nrec, nrec+3)}
		case 3:
			q = query.Query{Op: query.OpRecords, Link: hostLink(h), Range: window(i%nrec, i%nrec+5)}
		}
		var fanouts []int
		if i%3 == 0 {
			fanouts = []int{2, 2}
		}
		exec(q, fanouts)
	}

	for i, h := range held {
		if got := canon(t, answers[i]); got != copies[i] {
			t.Errorf("%s, fanouts %v: the held answer changed under later executions\nnow  %s\nwas  %s", h.q.Op, h.fanouts, got, copies[i])
		}
	}
}
