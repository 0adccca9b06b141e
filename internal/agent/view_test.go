package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/testutil"
	"pathdump/internal/types"
)

// eagerLive is the previous view(): every open flow's live record, built
// (header → path) up front whatever the query asks for. The lazy view
// must hand a scan exactly the records this list, filtered by the
// predicate, would — in this order, after the store's.
func eagerLive(a *Agent) []types.Record {
	var live []types.Record
	for _, e := range a.Mem.AppendLive(nil, nil, types.AllTime) {
		p, err := a.construct(e.Flow.SrcIP, e.Hdr)
		if err != nil {
			continue
		}
		live = append(live, types.Record{
			Flow: e.Flow, Path: p,
			STime: e.STime, ETime: e.ETime,
			Bytes: e.Bytes, Pkts: e.Pkts,
		})
	}
	return live
}

// TestViewScanMatchesEagerLive: over a host with exported records and
// open flows, every predicate — by flow, by link, by time range on either
// side of the open flows — scans the store's records and then the
// matching live records, exactly as the eager view did.
func TestViewScanMatchesEagerLive(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	topo := r.sim.Topo
	dst := topo.HostsAt(topo.ToRID(1, 0))[0]
	a := r.agents[dst.ID]
	srcs := topo.Hosts()
	var flows []types.FlowID
	// Finished flows: exported on FIN.
	for i := 0; i < 6; i++ {
		f := r.flow(srcs[i%4], dst, uint16(2000+i))
		flows = append(flows, f)
		r.stacks[srcs[i%4].ID].StartFlow(f, 20_000, 0, nil)
	}
	r.sim.Run(50 * types.Millisecond)
	exported := a.Store.Len()
	// Open flows: raw packets without FIN, delivered but not yet swept,
	// spread over time so ranges can split them.
	for i := 0; i < 8; i++ {
		f := r.flow(srcs[(i+5)%len(srcs)], dst, uint16(3000+i))
		if srcs[(i+5)%len(srcs)].ID == dst.ID {
			continue
		}
		flows = append(flows, f)
		r.sim.Send(srcs[(i+5)%len(srcs)].ID, &netsim.Packet{Flow: f, Size: 400 + i})
		r.sim.Run(r.sim.Now() + 20*types.Millisecond)
	}
	if exported == 0 || a.Store.Len() != exported || a.Mem.Len() < 4 {
		t.Fatalf("rig shape: %d exported, %d in store, %d live — want both kinds", exported, a.Store.Len(), a.Mem.Len())
	}

	live := eagerLive(a)
	now := r.sim.Now()
	rng := rand.New(rand.NewSource(3))
	links := []types.LinkID{types.AnyLink}
	for _, rec := range live {
		links = append(links, rec.Path.Links()...)
	}
	sawLive := false
	for trial := 0; trial < 300; trial++ {
		p := query.Predicate{Link: links[rng.Intn(len(links))], Range: types.AllTime}
		if rng.Intn(2) == 0 {
			p.Flow = &flows[rng.Intn(len(flows))]
		}
		if rng.Intn(2) == 0 {
			from := types.Time(rng.Int63n(int64(now)))
			p.Range = types.TimeRange{From: from, To: from + types.Time(rng.Int63n(int64(now)))}
		}
		var want []types.Record
		_ = a.Store.ScanSince(0, 0, p.Flow, p.Link, p.Range, func(rec *types.Record) bool {
			want = append(want, *rec)
			return true
		})
		fromStore := len(want)
		for i := range live {
			if p.Match(&live[i]) {
				want = append(want, live[i])
			}
		}
		sawLive = sawLive || len(want) > fromStore
		var got []types.Record
		a.view().ScanRecords(context.Background(), p, func(rec *types.Record) { got = append(got, *rec) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("predicate %+v:\n got %v\nwant %v", p, got, want)
		}
	}
	if !sawLive {
		t.Fatal("no trial matched a live record")
	}
}

// TestResultsNeverAliasTheView: what an evaluation returns is the
// caller's for good, though the view it ran on — the lookup buffer, the
// record its visitor was shown — goes back to the pool as ExecuteContext
// returns and is rewritten by the next query (and poisoned at release, in the
// race build; TestSingleFlowViewsBesideDatapath is the concurrent half). Every op's answer over stored and open flows reads the
// same after other queries have been through the recycled view.
func TestResultsNeverAliasTheView(t *testing.T) {
	d := newDatapath(t, Config{})
	var flows []types.FlowID
	for i := 0; i < 40; i++ {
		f, hdr := d.open(i)
		flows = append(flows, f)
		d.receive(f, hdr, i%2 == 0) // half exported, half still open
	}
	link := types.AnyLink
	for _, q := range []query.Query{
		{Op: query.OpFlows, Link: link},
		{Op: query.OpPaths, Flow: flows[1], Link: link},
		{Op: query.OpCount, Flow: flows[1]},
		{Op: query.OpFSD, Link: link},
		{Op: query.OpTopK, K: 10},
		{Op: query.OpConformance, MaxPathLen: 2},
		{Op: query.OpMatrix},
		{Op: query.OpRecords, Link: link},
	} {
		res, err := d.a.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		held, _ := json.Marshal(res)
		if string(held) == `{"op":"`+string(q.Op)+`"}` {
			t.Fatalf("%s: empty answer, the rig has nothing to alias", q.Op)
		}
		d.a.ExecuteContext(context.Background(), query.Query{Op: query.OpRecords, Flow: flows[3], Link: link})
		d.a.ExecuteContext(context.Background(), query.Query{Op: query.OpTopK, K: 3})
		if now, _ := json.Marshal(res); !bytes.Equal(now, held) {
			t.Errorf("%s: the answer changed once its view was reused:\n was %s\n now %s", q.Op, held, now)
		}
	}
}

// TestEventTriggeredConformanceAllocs pins what the per-record path —
// run from export on every record while a conformance query is installed
// — allocates: nothing for a record that conforms (no view, evaluation,
// closure or heap copy of the record: query.Violates on the record where
// it stands), and the alarm's one-path list for one that does not.
func TestEventTriggeredConformanceAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	rec := &types.Record{
		Flow: types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: types.ProtoTCP},
		Path: types.Path{1, 2, 3}, STime: 1, ETime: 2, Bytes: 10, Pkts: 1,
	}
	other := rec.Flow
	other.SrcPort++
	for _, tc := range []struct {
		name   string
		q      query.Query
		alarms int
	}{
		{"conforming", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{9}}, 0},
		{"violating", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{2}}, 1},
		{"violating, one flow", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{2}, Flow: rec.Flow}, 1},
		{"violating, another flow's policy", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{2}, Flow: other}, 0},
	} {
		var sink countSink
		d := newDatapath(t, Config{})
		d.a.sink = &sink
		inst := &Installed{Query: tc.q}
		if got := testing.AllocsPerRun(500, func() { d.a.runInstalled(inst, rec) }); got > float64(tc.alarms) {
			t.Errorf("%s: %v allocations per event-triggered evaluation, want <= %d", tc.name, got, tc.alarms)
		}
		if want := 501 * tc.alarms; sink.n != want || (want > 0 && !sink.last.Paths[0].Equal(rec.Path)) {
			t.Errorf("%s: %d alarms over 501 evaluations (last %+v), want %d carrying the record's path", tc.name, sink.n, sink.last, want)
		}
	}
}

// countSink is an AlarmSink that keeps the count and the last alarm.
type countSink struct {
	n    int
	last types.Alarm
}

func (s *countSink) RaiseAlarm(a types.Alarm) { s.n, s.last = s.n+1, a }
