package rpc

import (
	"context"
	"net/http/httptest"
	"testing"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// TestBatchedQueryMatchesPerHost serves all agents from two
// MultiAgentServer daemons (splitting the fleet in half) — the deployment
// shape the batched query path exists for — and requires byte-identical
// results versus per-host single-agent daemons.
func TestBatchedQueryMatchesPerHost(t *testing.T) {
	sim, agents, perHost, cleanup := buildCluster(t)
	defer cleanup()

	// Split the fleet across two multi-agent daemons.
	half := len(agents) / 2
	targetsA := make(map[types.HostID]Target)
	targetsB := make(map[types.HostID]Target)
	var hosts []types.HostID
	for _, h := range sim.Topo.Hosts() {
		hosts = append(hosts, h.ID)
		if len(targetsA) < half {
			targetsA[h.ID] = agents[h.ID]
		} else {
			targetsB[h.ID] = agents[h.ID]
		}
	}
	srvA := httptest.NewServer((&MultiAgentServer{Targets: targetsA, Parallelism: 4}).Handler())
	srvB := httptest.NewServer((&MultiAgentServer{Targets: targetsB}).Handler())
	defer srvA.Close()
	defer srvB.Close()
	urls := make(map[types.HostID]string)
	for h := range targetsA {
		urls[h] = srvA.URL
	}
	for h := range targetsB {
		urls[h] = srvB.URL
	}
	batched := &HTTPTransport{URLs: urls}

	q := query.Query{Op: query.OpTopK, K: 5}
	ctrlBatched := controller.New(sim.Topo, batched, nil)
	ctrlBatched.Parallelism = 4
	ctrlPerHost := controller.New(sim.Topo, perHost, nil)

	viaBatch, _, err := ctrlBatched.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	viaPerHost, _, err := ctrlPerHost.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaBatch.Top) == 0 || len(viaBatch.Top) != len(viaPerHost.Top) {
		t.Fatalf("batched %d entries, per-host %d", len(viaBatch.Top), len(viaPerHost.Top))
	}
	for i := range viaBatch.Top {
		if viaBatch.Top[i] != viaPerHost.Top[i] {
			t.Errorf("entry %d differs: %+v vs %+v", i, viaBatch.Top[i], viaPerHost.Top[i])
		}
	}

	// Per-host endpoints on the multi-agent daemon work too (host field
	// routing), including install/uninstall.
	id, err := batched.Install(context.Background(), hosts[0], query.Query{Op: query.OpPoorTCP, Threshold: 3}, types.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := batched.Uninstall(context.Background(), hosts[0], id); err != nil {
		t.Fatal(err)
	}
	if _, err := batched.Install(context.Background(), types.HostID(4242), query.Query{}, 0); err == nil {
		t.Error("multi-agent daemon accepted an unknown host")
	}
}

// TestQueryManyRejectsSharedSingleAgentURL: pointing several hosts at one
// single-agent daemon (no /batchquery endpoint) is a misconfiguration —
// the daemon cannot tell hosts apart, so answering per-host would return
// one agent's records under many host labels. QueryMany must error every
// affected slot instead, while lone hosts keep working per-host.
func TestQueryManyRejectsSharedSingleAgentURL(t *testing.T) {
	sim, _, tr, cleanup := buildCluster(t)
	defer cleanup()
	var hosts []types.HostID
	for _, h := range sim.Topo.Hosts() {
		hosts = append(hosts, h.ID)
	}
	// Lone hosts on their own single-agent daemons: per-host path, no
	// batch endpoint needed.
	replies, err := tr.QueryMany(context.Background(), hosts[:2], query.Query{Op: query.OpFlows, Link: types.AnyLink}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Err != nil {
			t.Errorf("distinct-URL reply %d: %v", i, rep.Err)
		}
		if rep.Host != hosts[i] {
			t.Errorf("reply %d host = %v, want %v", i, rep.Host, hosts[i])
		}
	}

	// Now misconfigure: two hosts share one single-agent daemon URL.
	orig := tr.URLs[hosts[1]]
	tr.URLs[hosts[1]] = tr.URLs[hosts[0]]
	defer func() { tr.URLs[hosts[1]] = orig }()
	replies, err = tr.QueryMany(context.Background(), hosts[:2], query.Query{Op: query.OpFlows, Link: types.AnyLink}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Err == nil {
			t.Errorf("reply %d: shared single-agent URL did not error", i)
		}
	}

	// Unknown host in the batch yields a per-slot error, not a hang.
	replies, err = tr.QueryMany(context.Background(), []types.HostID{hosts[0], 4242}, query.Query{Op: query.OpFlows}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Err != nil {
		t.Errorf("known host errored: %v", replies[0].Err)
	}
	if replies[1].Err == nil {
		t.Error("unknown host did not error")
	}

	// All hosts unknown with a positive bound: per-slot errors, no
	// divide-by-zero on the empty group set.
	replies, err = tr.QueryMany(context.Background(), []types.HostID{4242, 4243}, query.Query{Op: query.OpFlows}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Err == nil {
			t.Errorf("unknown host %d did not error", i)
		}
	}
}
