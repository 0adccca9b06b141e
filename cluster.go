package pathdump

import (
	"fmt"
	"sort"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/controller"
	"pathdump/internal/netsim"
	"pathdump/internal/tcp"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// Config bundles the knobs of every layer; the zero value selects
// sensible defaults throughout (1 Gbps links, 5 µs propagation, NetFlow
// 5 s record timeout, 200 ms TCP monitoring granularity, unlimited query
// fan-out parallelism).
type Config struct {
	Net    NetConfig
	Agent  AgentConfig
	TCP    TCPConfig
	Query  QueryConfig
	Alarms AlarmConfig
}

// QueryConfig tunes distributed query execution at the controller.
type QueryConfig struct {
	// Parallelism bounds the number of concurrently outstanding per-host
	// requests during execute and install fan-out (<= 0 means
	// unlimited). The §5.2 response-time model mirrors the bound.
	Parallelism int
	// Deadline is the modelled per-query response deadline fed into the
	// §5.2 cost model (0 = none): modelled response times cap at it,
	// because the controller returns whatever has arrived by then. Real
	// wall-clock deadlines are per call — pass a context.WithTimeout to
	// ExecuteContext/ExecuteTreeContext.
	Deadline Time
	// PerHostTimeout (wall-clock) bounds any single host's query,
	// including a hedged duplicate; a host that exhausts it is dropped
	// from the execution and the merged result is marked
	// ExecStats.Partial (0 = wait indefinitely, subject to the
	// whole-query context). Setting it is the straggler-tolerance opt-in.
	// It also caps the modelled per-host service time, keeping the §5.2
	// model honest about what the controller actually waits for.
	PerHostTimeout time.Duration
	// HedgeAfter (wall-clock) issues a duplicate request to a host whose
	// primary has not answered after this long; first response wins, the
	// loser is cancelled (0 = never hedge). Hedges hold their own
	// Parallelism slot. ExecStats.Hedged counts duplicates issued.
	HedgeAfter time.Duration
	// PartialOnDeadline makes a whole-query deadline expiry return the
	// merged partial result (ExecStats.Partial) instead of an error;
	// explicit cancellation and real host failures still error.
	PartialOnDeadline bool
}

// Cluster is one fully wired PathDump deployment over a simulated fabric:
// topology, switches with CherryPick tag rules, per-host agents and TCP
// stacks, and the controller.
type Cluster struct {
	Topo   *topology.Topology
	Sim    *netsim.Sim
	Ctrl   *controller.Controller
	Agents map[HostID]*agent.Agent
	Stacks map[HostID]*tcp.Stack

	cfg      Config
	nextPort uint16
}

// NewFatTree builds a cluster over a k-ary fat tree.
func NewFatTree(k int, cfg Config) (*Cluster, error) {
	topo, err := topology.FatTree(k)
	if err != nil {
		return nil, err
	}
	return newCluster(topo, cfg)
}

// NewVL2 builds a cluster over a VL2(dA, dI) topology with hostsPerToR
// servers per rack.
func NewVL2(dA, dI, hostsPerToR int, cfg Config) (*Cluster, error) {
	topo, err := topology.VL2(dA, dI, hostsPerToR)
	if err != nil {
		return nil, err
	}
	return newCluster(topo, cfg)
}

func newCluster(topo *topology.Topology, cfg Config) (*Cluster, error) {
	scheme, err := cherrypick.New(topo)
	if err != nil {
		return nil, err
	}
	sim := netsim.New(topo, scheme, cfg.Net)
	c := &Cluster{
		Topo:     topo,
		Sim:      sim,
		Agents:   make(map[HostID]*agent.Agent),
		Stacks:   make(map[HostID]*tcp.Stack),
		cfg:      cfg,
		nextPort: 10000,
	}
	c.Ctrl = controller.New(topo, controller.Local{Agents: c.Agents}, sim)
	if cfg.Alarms != (AlarmConfig{}) {
		c.Ctrl.SetAlarmPolicy(cfg.Alarms)
	}
	c.Ctrl.Parallelism = cfg.Query.Parallelism
	c.Ctrl.Cost.Deadline = cfg.Query.Deadline
	c.Ctrl.PerHostTimeout = cfg.Query.PerHostTimeout
	c.Ctrl.HedgeAfter = cfg.Query.HedgeAfter
	c.Ctrl.PartialOnDeadline = cfg.Query.PartialOnDeadline
	for _, h := range topo.Hosts() {
		st := tcp.NewStack(sim, h.ID, cfg.TCP)
		c.Stacks[h.ID] = st
		c.Agents[h.ID] = agent.New(sim, h, st, c.Ctrl, cfg.Agent)
	}
	return c, nil
}

// HostIDs returns every host ID in deterministic order.
func (c *Cluster) HostIDs() []HostID {
	out := make([]HostID, 0, len(c.Agents))
	for _, h := range c.Topo.Hosts() {
		out = append(out, h.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HostIP returns a host's address.
func (c *Cluster) HostIP(h HostID) IP {
	if host := c.Topo.Host(h); host != nil {
		return host.IP
	}
	return 0
}

// Now returns the cluster's virtual time.
func (c *Cluster) Now() Time { return c.Sim.Now() }

// Run advances virtual time to `until`.
func (c *Cluster) Run(until Time) { c.Sim.Run(until) }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d Time) { c.Sim.Run(c.Sim.Now() + d) }

// RunAll drains every pending event (traffic, evictions, monitors).
func (c *Cluster) RunAll() { c.Sim.RunAll() }

// FlowBetween builds a TCP FlowID between two hosts with a fresh source
// port.
func (c *Cluster) FlowBetween(src, dst HostID, dstPort uint16) FlowID {
	c.nextPort++
	return FlowID{
		SrcIP:   c.HostIP(src),
		DstIP:   c.HostIP(dst),
		SrcPort: c.nextPort,
		DstPort: dstPort,
		Proto:   types.ProtoTCP,
	}
}

// StartFlow opens a TCP flow of `bytes` bytes from src to dst and returns
// its FlowID. onDone, if non-nil, fires when the last byte is
// acknowledged (virtual time).
func (c *Cluster) StartFlow(src, dst HostID, dstPort uint16, bytes int64, onDone func()) (FlowID, error) {
	st := c.Stacks[src]
	if st == nil {
		return FlowID{}, fmt.Errorf("pathdump: unknown source host %v", src)
	}
	if c.Stacks[dst] == nil {
		return FlowID{}, fmt.Errorf("pathdump: unknown destination host %v", dst)
	}
	f := c.FlowBetween(src, dst, dstPort)
	var cb func(*tcp.Sender)
	if onDone != nil {
		cb = func(*tcp.Sender) { onDone() }
	}
	st.StartFlow(f, bytes, bytes, cb)
	return f, nil
}

// SendPacket injects one raw packet from a host (non-TCP traffic).
func (c *Cluster) SendPacket(src HostID, pkt *Packet) error {
	return c.Sim.Send(src, pkt)
}

// FailLink takes a switch-switch link administratively down.
func (c *Cluster) FailLink(a, b SwitchID) { c.Sim.FailLink(a, b) }

// RestoreLink brings a failed link back.
func (c *Cluster) RestoreLink(a, b SwitchID) { c.Sim.RestoreLink(a, b) }

// SetSilentDrop makes the directed a→b interface drop packets at random
// with probability p, without updating any counter (§4.3).
func (c *Cluster) SetSilentDrop(a, b SwitchID, p float64) { c.Sim.SetSilentDrop(a, b, p) }

// SetBlackhole silently drops everything on the directed a→b interface
// (§4.4).
func (c *Cluster) SetBlackhole(a, b SwitchID, on bool) { c.Sim.SetBlackhole(a, b, on) }

// SetImpairment installs a tc-style impairment (added delay, loss
// probability, bandwidth throttle, admin down) on the directed a→b
// link; mutable mid-run.
func (c *Cluster) SetImpairment(a, b SwitchID, im netsim.Impairment) { c.Sim.SetImpairment(a, b, im) }

// ClearImpairment restores the directed a→b link to healthy defaults.
func (c *Cluster) ClearImpairment(a, b SwitchID) { c.Sim.ClearImpairment(a, b) }

// FlapLink flaps the a–b link administratively (down downFor, up upFor,
// repeating until the given virtual time, then left up).
func (c *Cluster) FlapLink(a, b SwitchID, downFor, upFor, until Time) {
	c.Sim.FlapLink(a, b, downFor, upFor, until)
}

// OnAlarm registers a controller-side alarm handler. Handlers fire once
// per admitted alarm: repeats folded by the suppression window do not
// re-trigger them.
func (c *Cluster) OnAlarm(fn func(Alarm)) { c.Ctrl.OnAlarm(fn) }

// OnLoop registers a routing-loop handler (§4.5).
func (c *Cluster) OnLoop(fn func(LoopEvent)) { c.Ctrl.OnLoop(fn) }

// Alarms returns the controller's bounded alarm history (newest History
// entries, oldest first).
func (c *Cluster) Alarms() []Alarm { return c.Ctrl.Alarms() }

// SubscribeAlarms opens a live feed of admitted alarms (dedup and rate
// limiting applied): entries arrive in admission order on the
// subscription's channel; a slow consumer loses the newest entries
// rather than blocking the alarm path. Close the subscription when done.
func (c *Cluster) SubscribeAlarms(buf int) *AlarmSubscription { return c.Ctrl.SubscribeAlarms(buf) }

// AlarmHistory queries the bounded alarm history with filters (entry ID,
// reason, host, receipt-time range, limit).
func (c *Cluster) AlarmHistory(f AlarmFilter) []AlarmEntry { return c.Ctrl.AlarmHistory(f) }

// AlarmStats reports the alarm pipeline's counters (received, admitted,
// suppressed, rate-limited, stream drops, live subscribers).
func (c *Cluster) AlarmStats() AlarmPipeStats { return c.Ctrl.AlarmStats() }
