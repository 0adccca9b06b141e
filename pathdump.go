// Package pathdump is a complete implementation of PathDump — the
// datacenter network debugger of Tammana, Agarwal and Lee (OSDI 2016) —
// together with every substrate it needs to run on a single machine: a
// FatTree/VL2 topology generator, the CherryPick trajectory-tagging
// scheme, a deterministic packet-level network simulator with failure
// injection, a TCP model, per-host agents (trajectory memory, trajectory
// cache, TIB storage and query engine, active TCP monitor), and a
// controller with direct and multi-level aggregation-tree queries.
//
// PathDump's thesis is that a large class of network debugging problems
// needs no sophisticated in-network machinery: switches only stamp
// packets with a few sampled link identifiers (two VLAN tags suffice for
// paths up to shortest+2), end-hosts record per-path flow statistics, and
// debugging applications slice and dice those records. This package's
// Cluster assembles the whole system:
//
//	c, _ := pathdump.NewFatTree(4, pathdump.Config{})
//	hosts := c.HostIDs()
//	c.StartFlow(hosts[0], hosts[12], 80, 1<<20, nil)
//	c.RunAll()
//	paths := c.GetPaths(hosts[12], flowID, pathdump.AnyLink, pathdump.AllTime)
//
// The Table-1 host API (GetFlows, GetPaths, GetCount, GetDuration,
// GetPoorTCPFlows) and controller API (ExecuteContext, ExecuteTreeContext,
// InstallQueryContext, UninstallQueryContext) are exposed directly on
// Cluster; the debugging applications of §4 live in internal/apps and
// are re-exported through convenience wrappers.
package pathdump

import (
	"pathdump/internal/agent"
	"pathdump/internal/alarms"
	"pathdump/internal/controller"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/tcp"
	"pathdump/internal/types"
)

// Core identifier and record types (see internal/types for full docs).
type (
	// SwitchID identifies a switch; HostID an edge device; IP an IPv4
	// address in host byte order.
	SwitchID = types.SwitchID
	// HostID identifies an end host.
	HostID = types.HostID
	// IP is an IPv4 address.
	IP = types.IP
	// FlowID is the 5-tuple.
	FlowID = types.FlowID
	// LinkID is a directed pair of adjacent switches (wildcards allowed).
	LinkID = types.LinkID
	// Path is a list of switch IDs.
	Path = types.Path
	// Flow pairs a FlowID with one of its paths.
	Flow = types.Flow
	// Time is virtual nanoseconds; TimeRange an inclusive interval.
	Time = types.Time
	// TimeRange is ⟨from, to⟩ with wildcard support.
	TimeRange = types.TimeRange
	// Record is one TIB entry.
	Record = types.Record
	// Alarm is an agent→controller event.
	Alarm = types.Alarm
	// Reason is an alarm reason code.
	Reason = types.Reason
	// AlarmEntry is one admitted alarm in the controller's bounded
	// history (ID, payload, fold count, receipt times).
	AlarmEntry = alarms.Entry
	// AlarmFilter selects alarm-history entries.
	AlarmFilter = alarms.Filter
	// AlarmPipeStats counts the alarm pipeline's traffic.
	AlarmPipeStats = alarms.Stats
	// AlarmSubscription is a live alarm feed (Cluster.SubscribeAlarms).
	AlarmSubscription = alarms.Subscription
	// Query is a controller→host query; Result its mergeable answer.
	Query = query.Query
	// Result is a query's (partial) answer.
	Result = query.Result
	// ExecStats reports modelled distributed-query cost.
	ExecStats = controller.ExecStats
	// LoopEvent describes a detected routing loop.
	LoopEvent = controller.LoopEvent
	// NetConfig parameterises the simulated fabric.
	NetConfig = netsim.Config
	// AgentConfig parameterises host agents.
	AgentConfig = agent.Config
	// AlarmConfig tunes the controller-side alarm pipeline: history
	// depth, the suppression window and the rate limit. The zero value
	// keeps every alarm distinct in a default-depth ring.
	AlarmConfig = alarms.Config
	// TCPConfig parameterises the TCP model.
	TCPConfig = tcp.Config
	// Packet is one simulated packet (raw-injection API).
	Packet = netsim.Packet
	// Impairment is the per-link tc-style fault/shaping vector
	// (Cluster.SetImpairment).
	Impairment = netsim.Impairment
)

// Wildcards and time constants.
const (
	// WildcardSwitch matches any switch inside a LinkID.
	WildcardSwitch = types.WildcardSwitch
	// TimeEnd is the open upper bound of a TimeRange.
	TimeEnd = types.TimeEnd
	// Nanosecond..Second are virtual time units.
	Nanosecond  = types.Nanosecond
	Microsecond = types.Microsecond
	Millisecond = types.Millisecond
	Second      = types.Second
)

// AnyLink matches every link; AllTime every timestamp.
var (
	AnyLink = types.AnyLink
	AllTime = types.AllTime
)

// Alarm reason codes (§2.1).
const (
	ReasonPoorPerf        = types.ReasonPoorPerf
	ReasonPathConformance = types.ReasonPathConformance
	ReasonLongPath        = types.ReasonLongPath
	ReasonLoop            = types.ReasonLoop
	ReasonInvalidTraj     = types.ReasonInvalidTraj
	ReasonPolarized       = types.ReasonPolarized
	ReasonIncast          = types.ReasonIncast
	ReasonDDoS            = types.ReasonDDoS
)

// Query operations (compositions over the Table-1 host API).
const (
	OpFlows       = query.OpFlows
	OpPaths       = query.OpPaths
	OpCount       = query.OpCount
	OpDuration    = query.OpDuration
	OpPoorTCP     = query.OpPoorTCP
	OpFSD         = query.OpFSD
	OpTopK        = query.OpTopK
	OpConformance = query.OpConformance
	OpMatrix      = query.OpMatrix
	OpRecords     = query.OpRecords
)

// Since returns the range ⟨t, ?⟩.
func Since(t Time) TimeRange { return types.Since(t) }
