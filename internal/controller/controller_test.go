package controller

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/tcp"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// rig wires a fat-tree with agents, stacks and a controller.
type rig struct {
	sim    *netsim.Sim
	ctrl   *Controller
	agents map[types.HostID]*agent.Agent
	stacks map[types.HostID]*tcp.Stack
	hosts  []types.HostID
}

func newRig(t *testing.T, k int, cfg netsim.Config) *rig {
	t.Helper()
	topo, err := topology.FatTree(k)
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
		agents: make(map[types.HostID]*agent.Agent),
		stacks: make(map[types.HostID]*tcp.Stack),
	}
	local := Local{Agents: r.agents}
	r.ctrl = New(topo, local, sim)
	for _, h := range topo.Hosts() {
		st := tcp.NewStack(sim, h.ID, tcp.Config{})
		r.stacks[h.ID] = st
		r.agents[h.ID] = agent.New(sim, h, st, r.ctrl, agent.Config{})
		r.hosts = append(r.hosts, h.ID)
	}
	return r
}

// seedTraffic runs a deterministic mesh of small flows and drains the sim.
func (r *rig) seedTraffic(n int) {
	topoHosts := r.sim.Topo.Hosts()
	for i := 0; i < n; i++ {
		src := topoHosts[i%len(topoHosts)]
		dst := topoHosts[(i*7+3)%len(topoHosts)]
		if src.ID == dst.ID {
			continue
		}
		f := types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: uint16(5000 + i), DstPort: 80, Proto: types.ProtoTCP}
		r.stacks[src.ID].StartFlow(f, int64(1000*(1+i%40)), 0, nil)
	}
	r.sim.RunAll()
}

func TestDirectAndTreeQueriesAgree(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 1})
	r.seedTraffic(64)

	q := query.Query{Op: query.OpTopK, K: 10}
	direct, dstats, err := r.ctrl.ExecuteContext(context.Background(), r.hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	tree, tstats, err := r.ctrl.ExecuteTreeContext(context.Background(), r.hosts, q, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	db, _ := json.Marshal(direct.Top)
	tb, _ := json.Marshal(tree.Top)
	if string(db) != string(tb) {
		t.Errorf("direct and tree top-k differ:\n%s\n%s", db, tb)
	}
	if len(direct.Top) == 0 {
		t.Fatal("no flows found")
	}
	if dstats.Hosts != len(r.hosts) || tstats.Hosts != len(r.hosts) {
		t.Errorf("host counts: direct=%d tree=%d", dstats.Hosts, tstats.Hosts)
	}
	if dstats.ResponseTime <= 0 || tstats.ResponseTime <= 0 {
		t.Error("non-positive response times")
	}
	if dstats.WireBytes <= 0 || tstats.WireBytes <= 0 {
		t.Error("non-positive wire bytes")
	}
}

// cannedTransport returns a fixed-size top-k result per host with a
// paper-scale TIB (240 K records), isolating the response-time model.
type cannedTransport struct {
	k       int
	records int
}

func (c cannedTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	res := query.Result{Op: q.Op}
	for i := 0; i < c.k; i++ {
		res.Top = append(res.Top, query.FlowBytes{
			Flow:  types.FlowID{SrcIP: types.IP(uint32(host)<<16 | uint32(i)), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Bytes: uint64(1000 + i),
		})
	}
	return res, QueryMeta{RecordsScanned: c.records}, nil
}

func (c cannedTransport) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 0, nil
}
func (c cannedTransport) Uninstall(context.Context, types.HostID, int) error { return nil }

func TestDirectResponseGrowsWithHostsTreeStaysFlat(t *testing.T) {
	// The §5.2 shape at reduced paper scale (240 K records/host, k=2000):
	// direct-query response time grows linearly with host count because
	// the controller merges every host's k items serially; the 4-level
	// aggregation tree distributes that work and stays nearly flat.
	topo, _ := topology.FatTree(4)
	ctrl := New(topo, cannedTransport{k: 2000, records: 240_000}, nil)
	hosts := make([]types.HostID, 112)
	for i := range hosts {
		hosts[i] = types.HostID(i)
	}
	q := query.Query{Op: query.OpTopK, K: 2000}

	_, d28, err := ctrl.ExecuteContext(context.Background(), hosts[:28], q)
	if err != nil {
		t.Fatal(err)
	}
	_, d112, err := ctrl.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	_, t28, _ := ctrl.ExecuteTreeContext(context.Background(), hosts[:28], q, []int{7, 4, 4})
	_, t112, _ := ctrl.ExecuteTreeContext(context.Background(), hosts, q, []int{7, 4, 4})

	if d112.ResponseTime <= d28.ResponseTime {
		t.Errorf("direct response did not grow: %v vs %v", d28.ResponseTime, d112.ResponseTime)
	}
	if d112.ResponseTime <= t112.ResponseTime {
		t.Errorf("tree should beat direct at 112 hosts: direct=%v tree=%v",
			d112.ResponseTime, t112.ResponseTime)
	}
	growDirect := float64(d112.ResponseTime) / float64(d28.ResponseTime)
	growTree := float64(t112.ResponseTime) / float64(t28.ResponseTime)
	if growTree >= growDirect {
		t.Errorf("tree grew faster than direct: %.2f vs %.2f", growTree, growDirect)
	}
	// Traffic volumes are comparable (the paper's Fig. 12b): the tree
	// moves at most ~2× the direct bytes.
	if t112.WireBytes > 2*d112.WireBytes {
		t.Errorf("tree traffic %d far exceeds direct %d", t112.WireBytes, d112.WireBytes)
	}
}

func TestQueryHostAndErrors(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 3})
	r.seedTraffic(16)
	res, err := r.ctrl.QueryHostContext(context.Background(), r.hosts[3], query.Query{Op: query.OpFlows, Link: types.AnyLink})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if _, err := r.ctrl.QueryHostContext(context.Background(), types.HostID(9999), query.Query{Op: query.OpFlows}); err == nil {
		t.Error("unknown host accepted")
	}
	if _, _, err := r.ctrl.ExecuteContext(context.Background(), []types.HostID{9999}, query.Query{Op: query.OpFlows}); err == nil {
		t.Error("Execute with unknown host accepted")
	}
}

func TestInstallUninstallViaController(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 4})
	ids, err := r.ctrl.InstallContext(context.Background(), r.hosts[:3], query.Query{Op: query.OpPoorTCP, Threshold: 2}, 200*types.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	for h, id := range ids {
		if len(r.agents[h].InstalledQueries()) != 1 {
			t.Errorf("host %v has no installed query", h)
		}
		_ = id
	}
	if err := r.ctrl.UninstallContext(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	for h := range ids {
		if len(r.agents[h].InstalledQueries()) != 0 {
			t.Errorf("host %v still has installed queries", h)
		}
	}
	if _, err := r.ctrl.InstallContext(context.Background(), []types.HostID{9999}, query.Query{Op: query.OpPoorTCP}, 0); err == nil {
		t.Error("install at unknown host accepted")
	}
}

// TestLocalInstallRefusesMeasurementOps: the in-process transport turns
// an agent's refusal (ID 0) into an error, so the controller hands back
// no ID.
func TestLocalInstallRefusesMeasurementOps(t *testing.T) {
	r := newRig(t, 4, netsim.Config{})
	q := query.Query{Op: query.OpTopK, K: 5}
	if id, err := (Local{Agents: r.agents}).Install(context.Background(), r.hosts[0], q, types.Second); err == nil || id != 0 {
		t.Errorf("Local.Install of topk = ID %d, error %v; want 0 and an error", id, err)
	}
	ids, err := r.ctrl.InstallContext(context.Background(), r.hosts[:2], q, types.Second)
	if err == nil || ids != nil {
		t.Errorf("InstallContext of topk = %v, %v; want no IDs and an error", ids, err)
	}
}

func TestAlarmLogAndHandlers(t *testing.T) {
	r := newRig(t, 4, netsim.Config{})
	var handled []types.Alarm
	r.ctrl.OnAlarm(func(a types.Alarm) { handled = append(handled, a) })
	r.ctrl.RaiseAlarm(types.Alarm{Reason: types.ReasonPoorPerf, Host: 1})
	r.ctrl.RaiseAlarm(types.Alarm{Reason: types.ReasonLoop, Host: 2})
	if len(r.ctrl.Alarms()) != 2 || len(handled) != 2 {
		t.Fatal("alarm log or handler missed events")
	}
	if got := r.ctrl.AlarmsFor(types.ReasonLoop); len(got) != 1 || got[0].Host != 2 {
		t.Errorf("AlarmsFor = %v", got)
	}
}

// buildLoop misconfigures the fabric so flow f loops between two pods via
// one core, and returns the loop path description.
func buildLoop(r *rig, f types.FlowID) {
	// Probe the flow's canonical path first.
	topoHosts := r.sim.Topo
	src := topoHosts.HostByIP(f.SrcIP)
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 64})
	r.sim.RunAll()
	a := r.agents[topoHosts.HostByIP(f.DstIP).ID]
	paths := a.Store.Paths(f, types.AnyLink, types.AllTime)
	if len(paths) == 0 {
		// Record may still be in trajectory memory; flush via queries.
		res, _ := a.ExecuteContext(context.Background(), query.Query{Op: query.OpPaths, Flow: f, Link: types.AnyLink})
		paths = res.Paths
	}
	probe := paths[0]
	core, aggD := probe[2], probe[3]
	j := r.sim.Topo.CoreGroup(r.sim.Topo.Switch(core).Index)
	other := r.sim.Topo.AggID((r.sim.Topo.Switch(aggD).Pod+1)%4, j)
	r.sim.SetNextHopOverride(aggD, func(pkt *netsim.Packet, _ []types.SwitchID, _ netsim.NodeID) (types.SwitchID, bool) {
		if pkt.Flow == f {
			return core, true
		}
		return 0, false
	})
	r.sim.SetNextHopOverride(core, func(pkt *netsim.Packet, _ []types.SwitchID, ingress netsim.NodeID) (types.SwitchID, bool) {
		if pkt.Flow != f {
			return 0, false
		}
		if ingress == netsim.SwitchNode(aggD) {
			return other, true
		}
		return aggD, true
	})
	r.sim.SetNextHopOverride(other, func(pkt *netsim.Packet, _ []types.SwitchID, _ netsim.NodeID) (types.SwitchID, bool) {
		if pkt.Flow == f {
			return core, true
		}
		return 0, false
	})
}

func TestRoutingLoopDetection(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 5})
	var loops []LoopEvent
	r.ctrl.OnLoop(func(ev LoopEvent) { loops = append(loops, ev) })

	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(2, 0))[0]
	f := types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: 7000, DstPort: 80, Proto: types.ProtoTCP}
	buildLoop(r, f)

	start := r.sim.Now()
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Seq: 9, Size: 64})
	r.sim.RunAll()
	if len(loops) != 1 {
		t.Fatalf("detected %d loops, want 1 (alarms: %v)", len(loops), r.ctrl.Alarms())
	}
	ev := loops[0]
	if ev.Flow != f || ev.Seq != 9 {
		t.Errorf("loop event = %+v", ev)
	}
	latency := ev.DetectedAt - start
	if latency <= 0 || latency > 500*types.Millisecond {
		t.Errorf("detection latency = %v", latency)
	}
	if len(r.ctrl.AlarmsFor(types.ReasonLoop)) != 1 {
		t.Error("LOOP alarm missing")
	}
	// The loop detector needed at most 2 punt rounds (§4.5).
	if ev.Rounds < 1 || ev.Rounds > 2 {
		t.Errorf("rounds = %d", ev.Rounds)
	}
}

// TestLongPathHandlerFires: a punted packet whose links do not repeat
// yet raises a LONG_PATH alarm for its flow before the loop is concluded.
func TestLongPathHandlerFires(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 6})
	src := r.sim.Topo.Hosts()[0]
	dst := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(2, 0))[0]
	f := types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: 7100, DstPort: 80, Proto: types.ProtoTCP}
	buildLoop(r, f)
	r.sim.Send(src.ID, &netsim.Packet{Flow: f, Seq: 1, Size: 64})
	r.sim.RunAll()
	longs := r.ctrl.AlarmsFor(types.ReasonLongPath)
	if len(longs) == 0 {
		t.Fatal("no LONG_PATH alarm before loop conclusion")
	}
	for _, a := range longs {
		if a.Flow != f {
			t.Errorf("LONG_PATH alarm for flow %v, want %v", a.Flow, f)
		}
	}
}

func TestBuildLevelsShape(t *testing.T) {
	hosts := make([]types.HostID, 112)
	for i := range hosts {
		hosts[i] = types.HostID(i)
	}
	nodes, dfs := buildLevels(hosts, []int{7, 4, 4})
	if len(nodes) != 7 {
		t.Fatalf("level-1 fanout = %d", len(nodes))
	}
	// Groups are contiguous and led by their first host, so the DFS order
	// the fetch and the fold share is the caller's host order.
	if len(dfs) != len(hosts) || nodes[1] != &dfs[16] {
		t.Fatalf("%d nodes in DFS order, second top-level node at %v; want 112 and position 16", len(dfs), nodes[1].host)
	}
	for j := range dfs {
		if dfs[j].host != hosts[j] {
			t.Fatalf("DFS position %d holds host %v, want %v", j, dfs[j].host, hosts[j])
		}
	}
	total := 0
	var count func(n *treeNode)
	count = func(n *treeNode) {
		if n.isHost {
			total++
		}
		for _, c := range n.children {
			count(c)
		}
	}
	for _, n := range nodes {
		count(n)
	}
	if total != 112 {
		t.Errorf("tree covers %d hosts, want 112", total)
	}
	// Degenerate cases.
	if got, _ := buildLevels(nil, []int{4}); got != nil {
		t.Error("empty hosts should yield nil")
	}
	if got, _ := buildLevels(hosts[:3], []int{7}); len(got) != 3 {
		t.Errorf("fanout larger than hosts: %d nodes", len(got))
	}
}

// TestRecordsRepliesAreCharged: a records reply is the largest thing the
// management network carries, so the model must charge it — sized as the
// parent folds it in, before the pooled record buffers are recycled. The
// modelled traffic covers at least what the hosts' replies serialise to,
// and the response time grows with the number of records returned.
func TestRecordsRepliesAreCharged(t *testing.T) {
	r := newRig(t, 4, netsim.Config{Seed: 7})
	r.seedTraffic(128)
	// Scans cost the same whatever they match, so only the replies differ.
	r.ctrl.Cost.ExecPerRecord = 0

	all := query.Query{Op: query.OpRecords, Link: types.AnyLink}
	var replyBytes int64
	var one types.FlowID
	for _, h := range r.hosts {
		res, err := r.ctrl.QueryHostContext(context.Background(), h, all)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(&res)
		replyBytes += int64(len(b))
		if len(res.Records) > 0 {
			one = res.Records[0].Flow
		}
	}
	few := query.Query{Op: query.OpRecords, Link: types.AnyLink, Flow: one}

	for _, fanouts := range [][]int{nil, {4, 2}} {
		resAll, stAll, err := r.ctrl.ExecuteTreeContext(context.Background(), r.hosts, all, fanouts)
		if err != nil {
			t.Fatal(err)
		}
		resFew, stFew, err := r.ctrl.ExecuteTreeContext(context.Background(), r.hosts, few, fanouts)
		if err != nil {
			t.Fatal(err)
		}
		if len(resFew.Records) == 0 || len(resFew.Records) >= len(resAll.Records) {
			t.Fatalf("fanouts %v: %d vs %d records, want a strict non-empty subset", fanouts, len(resFew.Records), len(resAll.Records))
		}
		if stAll.WireBytes < replyBytes {
			t.Errorf("fanouts %v: WireBytes = %d, below the %d bytes the hosts' own replies serialise to", fanouts, stAll.WireBytes, replyBytes)
		}
		if stAll.ResponseTime <= stFew.ResponseTime {
			t.Errorf("fanouts %v: %d records modelled at %v, %d records at %v — response time must grow with the reply",
				fanouts, len(resAll.Records), stAll.ResponseTime, len(resFew.Records), stFew.ResponseTime)
		}
	}
}

// pooledRecords answers a records query with three records per host in a
// slice drawn from the record pool — as the rpc transports' replies are —
// one host at a time or all in one QueryMany.
type pooledRecords struct{ cannedTransport }

func hostRecords(h types.HostID) []types.Record {
	recs := genRecords(3, 4)
	for i := range recs {
		recs[i].Flow.SrcIP = types.IP(h)
	}
	return recs
}

func (pooledRecords) Query(_ context.Context, h types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	return query.Result{Op: q.Op, Records: append(query.GetRecordBuf(), hostRecords(h)...)}, QueryMeta{RecordsScanned: 3}, nil
}

type pooledRecordsBatch struct{ pooledRecords }

func (p pooledRecordsBatch) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := make([]BatchReply, len(hosts))
	for i, h := range hosts {
		out[i].Host = h
		out[i].Result, out[i].Meta, out[i].Err = p.Query(ctx, h, q)
	}
	return out, nil
}

// TestTreeRecordsEqualDirect: a records query through a tree returns
// exactly the direct query's records, in host order, on the per-host and
// on the batched path. It is the guard on when reply buffers go back to
// the record pool: a records merger reads its children until its last
// slot is consumed, so a buffer recycled as it is handed to Add — cleared,
// or already refilled by the next reply — silently empties or scrambles
// the answer. Every shape runs twice, the second time over the buffers the
// first one returned.
func TestTreeRecordsEqualDirect(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(24)
	var want []types.Record
	for _, h := range hosts {
		want = append(want, hostRecords(h)...)
	}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink}
	for name, tr := range map[string]Transport{"per-host": pooledRecords{}, "batched": pooledRecordsBatch{}} {
		for _, fanouts := range [][]int{nil, {4, 2}, {2, 2, 2}} {
			ctrl := New(topo, tr, nil)
			ctrl.Parallelism = 3
			for round := 0; round < 2; round++ {
				res, stats, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, fanouts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Hosts != len(hosts) || !reflect.DeepEqual(res.Records, want) {
					t.Fatalf("%s, fanouts %v, round %d: %d hosts answered with %d records that differ from the direct query's %d",
						name, fanouts, round, stats.Hosts, len(res.Records), len(want))
				}
			}
		}
	}
}
