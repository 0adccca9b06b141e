package pathdump

import (
	"context"
	"strings"
	"testing"
)

func TestClusterLifecycle(t *testing.T) {
	c, err := NewFatTree(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := c.HostIDs()
	if len(hosts) != 16 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	if !strings.Contains(c.String(), "16 hosts") {
		t.Errorf("String = %q", c.String())
	}
	src, dst := hosts[0], hosts[12]
	done := false
	f, err := c.StartFlow(src, dst, 80, 300_000, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !done {
		t.Fatal("flow did not complete")
	}

	// Table-1 host API at the destination.
	paths := c.GetPaths(dst, f, AnyLink, AllTime)
	if len(paths) != 1 {
		t.Fatalf("GetPaths = %v", paths)
	}
	if err := c.Validate(f.SrcIP, f.DstIP, paths[0]); err != nil {
		t.Fatalf("trajectory invalid: %v", err)
	}
	flows := c.GetFlows(dst, AnyLink, AllTime)
	if len(flows) == 0 {
		t.Fatal("GetFlows empty")
	}
	bytes, pkts := c.GetCount(dst, Flow{ID: f}, AllTime)
	if bytes < 300_000 || pkts == 0 {
		t.Errorf("GetCount = %d/%d", bytes, pkts)
	}
	if d := c.GetDuration(dst, Flow{ID: f}, AllTime); d <= 0 {
		t.Errorf("GetDuration = %v", d)
	}
	if poor := c.GetPoorTCPFlows(src, 1); len(poor) != 0 {
		t.Errorf("healthy fabric reported poor flows: %v", poor)
	}

	// Controller API.
	res, stats, err := c.ExecuteContext(context.Background(), hosts, Query{Op: OpTopK, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 || stats.Hosts != 16 {
		t.Fatalf("Execute top=%d hosts=%d", len(res.Top), stats.Hosts)
	}
	tres, _, err := c.ExecuteTreeContext(context.Background(), hosts, Query{Op: OpTopK, K: 5}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tres.Top) != len(res.Top) {
		t.Error("tree result differs from direct")
	}

	// Install/uninstall round trip.
	ids, err := c.InstallTCPMonitor(3, 200*Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UninstallQueryContext(context.Background(), ids); err != nil {
		t.Fatal(err)
	}

	// App wrappers reachable through the facade.
	if _, err := c.TrafficMatrix(AllTime); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TopK(3, AllTime, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterVL2(t *testing.T) {
	c, err := NewVL2(8, 6, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := c.HostIDs()
	src, dst := hosts[0], hosts[len(hosts)-1]
	f, err := c.StartFlow(src, dst, 80, 50_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	paths := c.GetPaths(dst, f, AnyLink, AllTime)
	if len(paths) != 1 {
		t.Fatalf("VL2 GetPaths = %v", paths)
	}
	if err := c.Validate(f.SrcIP, f.DstIP, paths[0]); err != nil {
		t.Fatal(err)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewFatTree(3, Config{}); err == nil {
		t.Error("odd arity accepted")
	}
	if _, err := NewFatTree(74, Config{}); err == nil {
		t.Error("k=74 exceeds the link-ID budget and must be rejected")
	}
	c, _ := NewFatTree(4, Config{})
	if _, err := c.StartFlow(HostID(999), c.HostIDs()[0], 80, 100, nil); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := c.StartFlow(c.HostIDs()[0], HostID(999), 80, 100, nil); err == nil {
		t.Error("unknown destination accepted")
	}
	if got := c.GetFlows(HostID(999), AnyLink, AllTime); got != nil {
		t.Error("unknown host returned flows")
	}
	if c.HostIP(HostID(999)) != 0 {
		t.Error("unknown host has an IP")
	}
}

func TestClusterFailureInjectionAndAlarms(t *testing.T) {
	c, _ := NewFatTree(4, Config{})
	hosts := c.HostIDs()
	var alarms []Alarm
	c.OnAlarm(func(a Alarm) { alarms = append(alarms, a) })
	if _, err := c.InstallTCPMonitor(2, 200*Millisecond); err != nil {
		t.Fatal(err)
	}
	// Blackhole both uplinks of the first ToR.
	tor := c.Topo.Host(hosts[0]).ToR
	for _, agg := range c.Topo.Switch(tor).Up {
		c.SetBlackhole(tor, agg, true)
	}
	if _, err := c.StartFlow(hosts[0], hosts[12], 80, 100_000, nil); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * Second)
	found := false
	for _, a := range alarms {
		if a.Reason == ReasonPoorPerf {
			found = true
		}
	}
	if !found {
		t.Errorf("no POOR_PERF alarm; alarms = %v", alarms)
	}
	if len(c.Alarms()) != len(alarms) {
		t.Error("alarm log mismatch")
	}
}
