package agent

import (
	"context"
	"testing"

	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/tcp"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

type alarmLog struct {
	alarms []types.Alarm
}

func (l *alarmLog) RaiseAlarm(a types.Alarm) { l.alarms = append(l.alarms, a) }

// rig builds a 4-ary fat-tree with agents (and TCP stacks) on all hosts.
type rig struct {
	sim    *netsim.Sim
	agents map[types.HostID]*Agent
	stacks map[types.HostID]*tcp.Stack
	log    *alarmLog
}

func newRig(t *testing.T, cfg netsim.Config, acfg Config) *rig {
	t.Helper()
	topo, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := cherrypick.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, scheme, cfg)
	r := &rig{
		sim:    sim,
		agents: make(map[types.HostID]*Agent),
		stacks: make(map[types.HostID]*tcp.Stack),
		log:    &alarmLog{},
	}
	for _, h := range topo.Hosts() {
		st := tcp.NewStack(sim, h.ID, tcp.Config{})
		r.stacks[h.ID] = st
		r.agents[h.ID] = New(sim, h, st, r.log, acfg)
	}
	return r
}

func (r *rig) flow(src, dst *topology.Host, port uint16) types.FlowID {
	return types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: port, DstPort: 80, Proto: types.ProtoTCP}
}

func TestDatapathBuildsTIB(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(2, 0))[0]
	f := r.flow(src, dst, 1000)
	r.stacks[src.ID].StartFlow(f, 50_000, 0, nil)
	r.sim.RunAll()

	a := r.agents[dst.ID]
	// FIN-driven eviction exported the record without waiting for the
	// idle sweep.
	paths := a.Store.Paths(f, types.AnyLink, types.AllTime)
	if len(paths) != 1 {
		t.Fatalf("paths in TIB = %v", paths)
	}
	if err := r.sim.Topo.ValidTrajectory(f.SrcIP, f.DstIP, paths[0]); err != nil {
		t.Fatalf("stored path invalid: %v", err)
	}
	bytes, pkts := a.Store.Count(types.Flow{ID: f}, types.AllTime)
	if bytes == 0 || pkts == 0 {
		t.Error("zero counters in TIB record")
	}
	// The reverse direction (ACK stream) is recorded at the sender side.
	back := r.agents[src.ID].Store.Paths(f.Reverse(), types.AnyLink, types.AllTime)
	if len(back) == 0 {
		t.Error("ACK trajectory missing at sender's TIB")
	}
	if a.PacketsSeen == 0 || a.RecordsStored == 0 {
		t.Error("datapath counters not updated")
	}
}

func TestIdleSweepExports(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 0))[0]
	f := r.flow(src, dst, 1001)
	// Raw packet without FIN: only the sweep can export it.
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 500})
	a := r.agents[dst.ID]
	r.sim.Run(tib.DefaultIdleTimeout - types.Second) // sweeps run, but the record is not idle long enough
	if a.Store.Len() != 0 {
		t.Fatalf("record exported after %v, before the %v idle timeout", r.sim.Now(), tib.DefaultIdleTimeout)
	}
	r.sim.RunAll() // drains: sweeps until memory empties
	if a.Mem.Len() != 0 {
		t.Fatalf("memory still holds %d records", a.Mem.Len())
	}
	if got := a.Store.Len(); got != 1 {
		t.Fatalf("store has %d records, want 1", got)
	}
}

func TestLiveMemoryVisibleToQueries(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 0))[0]
	f := r.flow(src, dst, 1002)
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 700})
	// Run only until delivery (before any sweep).
	r.sim.Run(10 * types.Millisecond)
	a := r.agents[dst.ID]
	if a.Store.Len() != 0 {
		t.Fatal("record exported too early")
	}
	res, _ := a.ExecuteContext(context.Background(), query.Query{Op: query.OpFlows, Link: types.AnyLink})
	if len(res.Flows) != 1 || res.Flows[0].ID != f {
		t.Fatalf("live record invisible: %v", res.Flows)
	}
	res, _ = a.ExecuteContext(context.Background(), query.Query{Op: query.OpCount, Flow: f})
	if res.Bytes != 700 {
		t.Errorf("live count = %d", res.Bytes)
	}
}

func TestTrajectoryCacheIsUsed(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 0))[0]
	a := r.agents[dst.ID]
	// Many sequential flows between the same pair reuse one path.
	for i := 0; i < 20; i++ {
		f := r.flow(src, dst, uint16(2000+i))
		r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 100, Fin: true})
	}
	r.sim.RunAll()
	if hits, _ := a.Cache.Stats(); hits == 0 {
		t.Error("trajectory cache never hit")
	}
	if a.Cache.HitRate() < 0.5 {
		t.Errorf("hit rate = %v", a.Cache.HitRate())
	}
}

func TestPeriodicPoorTCPInstall(t *testing.T) {
	r := newRig(t, netsim.Config{Seed: 7}, Config{})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 1))[0]
	// Install the paper's 200 ms monitoring query at the sender host.
	id := r.agents[src.ID].Install(query.Query{Op: query.OpPoorTCP, Threshold: 2}, 200*types.Millisecond)
	// Blackhole the uplinks so the flow stalls.
	r.sim.SetBlackhole(src.ToR, r.sim.Topo.AggID(0, 0), true)
	r.sim.SetBlackhole(src.ToR, r.sim.Topo.AggID(0, 1), true)
	f := r.flow(src, dst, 3000)
	r.stacks[src.ID].StartFlow(f, 100_000, 0, nil)
	r.sim.Run(3 * types.Second)

	found := 0
	for _, al := range r.log.alarms {
		if al.Reason == types.ReasonPoorPerf && al.Flow == f && al.Host == src.ID {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no POOR_PERF alarm raised")
	}
	// Uninstall stops the stream.
	if err := r.agents[src.ID].Uninstall(id); err != nil {
		t.Fatal(err)
	}
	before := len(r.log.alarms)
	r.sim.Run(5 * types.Second)
	if len(r.log.alarms) != before {
		t.Error("alarms raised after uninstall")
	}
	if err := r.agents[src.ID].Uninstall(999); err == nil {
		t.Error("uninstalling unknown ID should fail")
	}
}

func TestEventTriggeredConformance(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	topo := r.sim.Topo
	src := topo.Hosts()[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	// Install path conformance (§2.3): alarm on paths of ≥6 switches.
	r.agents[dst.ID].Install(query.Query{Op: query.OpConformance, MaxPathLen: 6}, 0)

	// Healthy 5-switch path: no alarm.
	f := r.flow(src, dst, 4000)
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 100, Fin: true})
	r.sim.RunAll()
	if n := len(r.log.alarms); n != 0 {
		t.Fatalf("alarm on conformant path: %v", r.log.alarms)
	}

	// Misconfigure the destination-pod aggregation switch to bounce the
	// flow through the wrong ToR: a delivered 7-switch detour.
	paths := r.agents[dst.ID].Store.Paths(f, types.AnyLink, types.AllTime)
	aggD := paths[0][3]
	wrongToR := topo.ToRID(2, 1)
	r.sim.SetNextHopOverride(aggD, func(pkt *netsim.Packet, _ []types.SwitchID, ingress netsim.NodeID) (types.SwitchID, bool) {
		if pkt.Flow == f && ingress != netsim.SwitchNode(wrongToR) {
			return wrongToR, true
		}
		return 0, false
	})
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Seq: 1, Size: 100, Fin: true})
	r.sim.RunAll()
	var pc []types.Alarm
	for _, al := range r.log.alarms {
		if al.Reason == types.ReasonPathConformance {
			pc = append(pc, al)
		}
	}
	if len(pc) == 0 {
		t.Fatal("delivered long path raised no PC_FAIL alarm")
	}
	if !pc[0].Paths[0].Contains(wrongToR) {
		t.Errorf("alarm path %v misses the detour ToR", pc[0].Paths[0])
	}
}

func TestInstalledQueryListing(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	a := r.agents[0]
	id1 := a.Install(query.Query{Op: query.OpPoorTCP}, types.Second)
	id2 := a.Install(query.Query{Op: query.OpConformance, MaxPathLen: 6}, 0)
	if got := a.InstalledQueries(); len(got) != 2 {
		t.Fatalf("installed = %v", got)
	}
	if err := a.Uninstall(id1); err != nil {
		t.Fatal(err)
	}
	if got := a.InstalledQueries(); len(got) != 1 || got[0] != id2 {
		t.Fatalf("after uninstall = %v", got)
	}
}

// TestInstallRefusesMeasurementOps: an installed query runs only the
// ops that raise something, so a topk install, periodic or
// event-triggered, is refused with ID 0 and schedules no timer.
func TestInstallRefusesMeasurementOps(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	a := r.agents[0]
	pending := r.sim.Pending()
	for _, period := range []types.Time{types.Second, 0} {
		if id := a.Install(query.Query{Op: query.OpTopK, K: 5}, period); id != 0 {
			t.Errorf("topk install every %v got ID %d, want 0", period, id)
		}
	}
	if got := r.sim.Pending(); got != pending {
		t.Errorf("%d events pending after refused installs, want %d", got, pending)
	}
	if got := a.InstalledQueries(); len(got) != 0 {
		t.Errorf("installed = %v after refused installs", got)
	}
}

func TestIngestRetentionBoundsStore(t *testing.T) {
	// Bounded retention (§5.3): the agent's ingest path evicts whole
	// expired TIB segments as records arrive, so per-host storage tracks
	// the retention window instead of growing without bound.
	const (
		retention = 10 * types.Second
		spacing   = 500 * types.Millisecond
		flows     = 100
	)
	r := newRig(t, netsim.Config{}, Config{Retention: retention})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 0))[0]
	for i := 0; i < flows; i++ {
		f := r.flow(src, dst, uint16(2000+i))
		// FIN-carrying raw packet: exported at arrival, timestamped now.
		r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 400, Fin: true})
		r.sim.Run(types.Time(i+1) * spacing)
	}
	a := r.agents[dst.ID]
	if a.RecordsStored != flows {
		t.Fatalf("stored %d records, want %d", a.RecordsStored, flows)
	}
	if a.RecordsEvicted == 0 {
		t.Fatal("50s of ingest under a 10s retention evicted nothing")
	}
	if a.Store.Len() != int(a.RecordsStored-a.RecordsEvicted) {
		t.Fatalf("Len = %d, stored %d, evicted %d", a.Store.Len(), a.RecordsStored, a.RecordsEvicted)
	}
	if a.Store.Len() >= flows {
		t.Fatalf("store not bounded: %d records", a.Store.Len())
	}
	// Survivors all sit inside the retention window (one segment-span of
	// slack at the boundary — eviction granularity is a whole segment).
	cutoff := r.sim.Now() - retention
	slack := retention / 8 * 2 // default SegmentSpan is Retention/8
	a.Store.Scan(nil, types.AnyLink, types.AllTime, func(rec *types.Record) {
		if rec.ETime < cutoff-slack {
			t.Fatalf("expired record survived: %v (cutoff %v)", rec, cutoff)
		}
	})
	// And the recent window is intact: the last flows are queryable.
	f := r.flow(src, dst, uint16(2000+flows-1))
	if got := a.Store.Paths(f, types.AnyLink, types.AllTime); len(got) != 1 {
		t.Fatalf("freshest record missing: %v", got)
	}
}

func TestIngestColdTierAndCompaction(t *testing.T) {
	// Storage engine v2 on the ingest path: with a cold tier and
	// compaction configured, the export hooks spill old sealed segments
	// to disk (bounding resident bytes without losing data) and keep the
	// sealed-segment count compacted — all driven per exported record,
	// like retention.
	const (
		retention = 20 * types.Second
		spacing   = 100 * types.Millisecond
		flows     = 400
	)
	dir := t.TempDir()
	r := newRig(t, netsim.Config{}, Config{
		Retention:    retention,
		ColdDir:      dir, // ColdAfter defaults to retention/2
		CompactBelow: 64,
	})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(1, 0))[0]
	for i := 0; i < flows; i++ {
		f := r.flow(src, dst, uint16(3000+i))
		r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 400, Fin: true})
		r.sim.Run(types.Time(i+1) * spacing)
	}
	a := r.agents[dst.ID]
	if a.SpillErrors != 0 {
		t.Fatalf("%d spill errors during ingest", a.SpillErrors)
	}
	st := a.Store.ColdStats()
	if st.Segments == 0 || st.Records == 0 {
		t.Fatalf("export path spilled nothing: %+v", st)
	}
	// Cold records still count and still answer: a full scan touches the
	// whole retention window, hot and cold.
	n := 0
	if err := a.Store.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) { n++ }); err != nil {
		t.Fatalf("scan over the tiered store: %v", err)
	}
	if n != a.Store.Len() {
		t.Fatalf("scan saw %d records, store holds %d", n, a.Store.Len())
	}
	if n != int(a.RecordsStored-a.RecordsEvicted) {
		t.Fatalf("scan saw %d, stored %d evicted %d", n, a.RecordsStored, a.RecordsEvicted)
	}
	if a.Store.Compactions() == 0 {
		t.Fatal("export path never compacted despite CompactBelow")
	}
}
