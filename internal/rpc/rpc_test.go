package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/controller"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/tcp"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// buildCluster wires a 4-ary fat-tree with agents, seeds traffic, and
// exposes every agent over an httptest server.
func buildCluster(t *testing.T) (*netsim.Sim, map[types.HostID]*agent.Agent, *HTTPTransport, func()) {
	t.Helper()
	topo, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := cherrypick.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, scheme, netsim.Config{Seed: 1})
	agents := make(map[types.HostID]*agent.Agent)
	stacks := make(map[types.HostID]*tcp.Stack)
	for _, h := range topo.Hosts() {
		st := tcp.NewStack(sim, h.ID, tcp.Config{})
		stacks[h.ID] = st
		agents[h.ID] = agent.New(sim, h, st, nil, agent.Config{})
	}
	hosts := topo.Hosts()
	for i := 0; i < 32; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i*5+3)%len(hosts)]
		if src.ID == dst.ID {
			continue
		}
		f := types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: uint16(3000 + i), DstPort: 80, Proto: types.ProtoTCP}
		stacks[src.ID].StartFlow(f, int64(2000*(1+i%10)), 0, nil)
	}
	sim.RunAll()

	urls := make(map[types.HostID]string)
	var servers []*httptest.Server
	for id, a := range agents {
		srv := httptest.NewServer((&AgentServer{T: a}).Handler())
		servers = append(servers, srv)
		urls[id] = srv.URL
	}
	tr := &HTTPTransport{URLs: urls}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return sim, agents, tr, cleanup
}

// TestHTTPQueryMatchesLocal: the daemons and the in-process Local
// transport measure a host alike (controller.Evaluate), so a query over
// either gives the same merged answer and the same modelled execution —
// response time, wire bytes, segment telemetry and hosts answered.
func TestHTTPQueryMatchesLocal(t *testing.T) {
	sim, agents, tr, cleanup := buildCluster(t)
	defer cleanup()
	ctrlHTTP := controller.New(sim.Topo, tr, nil)
	ctrlLocal := controller.New(sim.Topo, controller.Local{Agents: agents}, nil)

	var hosts []types.HostID
	for _, h := range sim.Topo.Hosts() {
		hosts = append(hosts, h.ID)
	}
	early := types.TimeRange{From: 0, To: 100 * types.Microsecond}
	for _, tc := range []struct {
		name string
		q    query.Query
	}{
		{"topk", query.Query{Op: query.OpTopK, K: 5}},
		{"records", query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}},
		{"flows", query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: types.AllTime}},
		{"flows-bounded", query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: early}},
	} {
		viaHTTP, stHTTP, err := ctrlHTTP.ExecuteContext(context.Background(), hosts, tc.q)
		if err != nil {
			t.Fatalf("%s over HTTP: %v", tc.name, err)
		}
		viaLocal, stLocal, err := ctrlLocal.ExecuteContext(context.Background(), hosts, tc.q)
		if err != nil {
			t.Fatalf("%s in process: %v", tc.name, err)
		}
		if !reflect.DeepEqual(viaHTTP, viaLocal) {
			t.Errorf("%s: HTTP answered %+v, Local %+v", tc.name, viaHTTP, viaLocal)
		}
		if len(viaHTTP.Top)+len(viaHTTP.Records)+len(viaHTTP.Flows) == 0 {
			t.Errorf("%s: empty answer over HTTP", tc.name)
		}
		type model struct {
			ResponseTime                    types.Time
			WireBytes                       int64
			SegmentsScanned, SegmentsPruned int
			Hosts                           int
		}
		mHTTP := model{stHTTP.ResponseTime, stHTTP.WireBytes, stHTTP.SegmentsScanned, stHTTP.SegmentsPruned, stHTTP.Hosts}
		mLocal := model{stLocal.ResponseTime, stLocal.WireBytes, stLocal.SegmentsScanned, stLocal.SegmentsPruned, stLocal.Hosts}
		if mHTTP != mLocal {
			t.Errorf("%s: HTTP modelled %+v, Local %+v", tc.name, mHTTP, mLocal)
		}
		if mHTTP.Hosts != len(hosts) || mHTTP.SegmentsScanned+mHTTP.SegmentsPruned == 0 {
			t.Errorf("%s: %+v, want %d hosts answering with segment telemetry", tc.name, mHTTP, len(hosts))
		}
	}
}

func TestHTTPInstallUninstall(t *testing.T) {
	sim, agents, tr, cleanup := buildCluster(t)
	defer cleanup()
	_ = sim
	var anyHost types.HostID
	for id := range agents {
		anyHost = id
		break
	}
	id, err := tr.Install(context.Background(), anyHost, query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents[anyHost].InstalledQueries()) != 1 {
		t.Fatal("install did not reach the agent")
	}
	if err := tr.Uninstall(context.Background(), anyHost, id); err != nil {
		t.Fatal(err)
	}
	if len(agents[anyHost].InstalledQueries()) != 0 {
		t.Fatal("uninstall did not reach the agent")
	}
	if err := tr.Uninstall(context.Background(), anyHost, 777); err == nil {
		t.Error("uninstalling unknown id should fail")
	}
	if _, err := tr.Install(context.Background(), types.HostID(4242), query.Query{}, 0); err == nil {
		t.Error("unknown host should fail")
	}
}

// TestHTTPInstallRefusesMeasurementOps: a daemon answers an install its
// agent refuses (a periodic topk runs nothing) with 501.
func TestHTTPInstallRefusesMeasurementOps(t *testing.T) {
	_, agents, tr, cleanup := buildCluster(t)
	defer cleanup()
	var host types.HostID
	for host = range agents {
		break
	}
	id, err := tr.Install(context.Background(), host, query.Query{Op: query.OpTopK, K: 5}, types.Second)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("topk install: ID %d, error %v; want a 501 *StatusError", id, err)
	}
	if got := agents[host].InstalledQueries(); len(got) != 0 {
		t.Errorf("installed = %v after a refused install", got)
	}
}

func TestAlarmRoundTrip(t *testing.T) {
	topo, _ := topology.FatTree(4)
	ctrl := controller.New(topo, controller.Local{}, nil)
	srv := httptest.NewServer((&ControllerServer{C: ctrl}).Handler())
	defer srv.Close()

	sink := &AlarmClient{URL: srv.URL}
	sink.RaiseAlarm(types.Alarm{Host: 3, Reason: types.ReasonPoorPerf, At: 42})
	alarms := ctrl.Alarms()
	if len(alarms) != 1 || alarms[0].Host != 3 || alarms[0].Reason != types.ReasonPoorPerf {
		t.Fatalf("alarms = %v", alarms)
	}
	// Failures are swallowed, not fatal.
	bad := &AlarmClient{URL: "http://127.0.0.1:1"}
	bad.RaiseAlarm(types.Alarm{Host: 9})
}

func TestHTTPErrors(t *testing.T) {
	_, _, tr, cleanup := buildCluster(t)
	defer cleanup()
	if _, _, err := tr.Query(context.Background(), types.HostID(4242), query.Query{Op: query.OpFlows}); err == nil {
		t.Error("query to unknown host should fail")
	}
	// GET on a POST endpoint.
	for id := range tr.URLs {
		resp, err := tr.client().Get(tr.URLs[id] + "/query")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 405 {
			t.Errorf("GET /query = %d, want 405", resp.StatusCode)
		}
		break
	}
}
