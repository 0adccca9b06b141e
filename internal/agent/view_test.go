package agent

import (
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
	for _, e := range a.Mem.Live() {
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
		a.view(nil).ScanRecords(p, func(rec *types.Record) { got = append(got, *rec) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("predicate %+v:\n got %v\nwant %v", p, got, want)
		}
	}
	if !sawLive {
		t.Fatal("no trial matched a live record")
	}
}

// TestEventTriggeredConformanceAllocs pins what the per-record path —
// run from export on every record while a conformance query is installed
// — allocates: the scan closure and, when the record violates, the
// one-element answer. The parent commit measured 1, 2 and 3 (its third
// case also heap-allocated the flow filter); a one-record view must never
// be the reason a dedup map or a path interner is allocated.
func TestEventTriggeredConformanceAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	rec := &types.Record{
		Flow: types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: types.ProtoTCP},
		Path: types.Path{1, 2, 3}, STime: 1, ETime: 2, Bytes: 10, Pkts: 1,
	}
	for _, tc := range []struct {
		name string
		q    query.Query
		max  float64
	}{
		{"conforming", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{9}}, 1},
		{"violating", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{2}}, 2},
		{"violating, one flow", query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{2}, Flow: rec.Flow}, 2},
	} {
		var res query.Result
		if got := testing.AllocsPerRun(500, func() { res = query.Execute(tc.q, recordView{rec}) }); got > tc.max {
			t.Errorf("%s: %v allocations per event-triggered evaluation, want <= %v", tc.name, got, tc.max)
		}
		if want := int(tc.max) - 1; len(res.Violations) != want {
			t.Errorf("%s: %d violations, want %d", tc.name, len(res.Violations), want)
		}
	}
}
