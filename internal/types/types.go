// Package types defines the identifiers and records shared by every
// PathDump component: switch/host/link identifiers, five-tuple flow IDs,
// packet trajectories, time ranges with wildcard semantics, header tags,
// and TIB (Trajectory Information Base) records.
//
// The definitions follow §2.1 of the paper:
//
//   - a linkID is a pair of adjacent switchIDs ⟨Si, Sj⟩;
//   - a Path is a list of switchIDs ⟨Si, Sj, ...⟩;
//   - a flowID is the usual 5-tuple ⟨srcIP, dstIP, srcPort, dstPort, proto⟩;
//   - a Flow is a ⟨flowID, Path⟩ pair;
//   - a timeRange is a pair of timestamps ⟨ti, tj⟩;
//
// with wildcard entries allowed for switchIDs and timestamps.
package types

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"
)

// SwitchID identifies a network switch. Switch identifiers are assigned
// statically when the topology is built and never change afterwards; the
// "ground truth" topology stored at every edge device maps them back to
// physical positions.
type SwitchID uint16

// WildcardSwitch matches any switch in a LinkID ("?" in the paper's
// notation, e.g. ⟨?, Sj⟩ means all incoming links of Sj).
const WildcardSwitch SwitchID = 0xFFFF

// IsWildcard reports whether s is the wildcard switch identifier.
func (s SwitchID) IsWildcard() bool { return s == WildcardSwitch }

// String renders the switch ID, using "*" for the wildcard.
func (s SwitchID) String() string {
	if s.IsWildcard() {
		return "*"
	}
	return fmt.Sprintf("s%d", uint16(s))
}

// HostID identifies an end-host (edge device). Each host runs one PathDump
// agent and owns the TIB shard for flows destined to it.
type HostID uint32

// String renders the host ID.
func (h HostID) String() string { return fmt.Sprintf("h%d", uint32(h)) }

// IP is an IPv4 address in host byte order. The simulator assigns each host
// a unique address; the paper's agents key "local" flows by dstIP.
type IP uint32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Protocol numbers used by the flow generator and the monitoring module.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FlowID is the usual five-tuple.
type FlowID struct {
	SrcIP   IP
	DstIP   IP
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the five-tuple.
func (f FlowID) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, f.Proto)
}

// Reverse returns the flow ID of the opposite direction (used for ACKs).
func (f FlowID) Reverse() FlowID {
	return FlowID{
		SrcIP: f.DstIP, DstIP: f.SrcIP,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
		Proto: f.Proto,
	}
}

// FlowKey keys FlowKey.Hash: two 64-bit words.
type FlowKey [2]uint64

// storeKey is the fixed key of every structure the TIB persists or ships:
// a flow's stripe, its bloom bits and its place in a block's flow order
// are all read from StoreHash. It is fixed because a block built by one
// process is probed by another, and unexported because blocks and
// snapshots already written would silently miss their own flows under
// any other. Tables that live in one process only draw their own key
// with NewFlowKey.
var storeKey = FlowKey{0x243f6a8885a308d3, 0x13198a2e03707344}

// StoreHash is a flow's hash under the TIB's fixed key.
func StoreHash(f FlowID) uint64 { return storeKey.Hash(f) }

// StoreKey returns a copy of the TIB's fixed key, for tests that craft
// flows against its words.
func StoreKey() FlowKey { return storeKey }

// NewFlowKey draws a random key.
func NewFlowKey() FlowKey { return FlowKey{rand.Uint64(), rand.Uint64()} }

// Hash is the one flow hash: the five-tuple's two words, each mixed with
// one key word by a 128-bit multiply folded to 64 bits (wyhash's mix,
// twice). The first word is xored with the key and then multiplied by a
// constant, never by a key word, so no input word collapses the hash: a
// flow whose first word equals the key's still hashes by its second.
// Five-tuples come from the network; under a random key, a sender that
// picks its flows cannot aim them at one probe run, as it could under a
// fixed one.
func (k FlowKey) Hash(f FlowID) uint64 {
	a := uint64(f.SrcIP)<<32 | uint64(f.DstIP)
	b := uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)
	return mum(mum(a^k[0], 0x9e3779b97f4a7c15)^b, k[1]|1)
}

// mum multiplies into 128 bits and folds the halves.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// LinkID is a pair of adjacent switch IDs. Either side may be
// WildcardSwitch: ⟨?, Sj⟩ is interpreted as all incoming links of Sj and
// ⟨Si, ?⟩ as all outgoing links of Si; ⟨?, ?⟩ matches every link.
type LinkID struct {
	A, B SwitchID
}

// AnyLink matches every link.
var AnyLink = LinkID{WildcardSwitch, WildcardSwitch}

// IsWildcard reports whether either endpoint is a wildcard.
func (l LinkID) IsWildcard() bool { return l.A.IsWildcard() || l.B.IsWildcard() }

// Matches reports whether the concrete link other is selected by l,
// honouring wildcards on either side of l.
func (l LinkID) Matches(other LinkID) bool {
	return (l.A.IsWildcard() || l.A == other.A) && (l.B.IsWildcard() || l.B == other.B)
}

// String renders the link as "sA-sB".
func (l LinkID) String() string { return l.A.String() + "-" + l.B.String() }

// Path is an ordered list of switch IDs traversed by a packet, from the
// switch adjacent to the source host to the switch adjacent to the
// destination host.
type Path []SwitchID

// String renders the path as "s0>s4>s8".
func (p Path) String() string {
	if len(p) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, ">")
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the path visits switch s.
func (p Path) Contains(s SwitchID) bool {
	for _, x := range p {
		if x == s {
			return true
		}
	}
	return false
}

// ContainsLink reports whether the path traverses the directed link l,
// honouring wildcards in l.
func (p Path) ContainsLink(l LinkID) bool {
	for i := 0; i+1 < len(p); i++ {
		if l.Matches(LinkID{p[i], p[i+1]}) {
			return true
		}
	}
	return false
}

// Links returns the directed links along the path.
func (p Path) Links() []LinkID {
	if len(p) < 2 {
		return nil
	}
	out := make([]LinkID, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		out = append(out, LinkID{p[i], p[i+1]})
	}
	return out
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Key returns a compact string key for maps.
func (p Path) Key() string {
	var b strings.Builder
	b.Grow(len(p) * 3)
	for _, s := range p {
		b.WriteByte(byte(s >> 8))
		b.WriteByte(byte(s))
	}
	return b.String()
}

// Flow pairs a flow ID with one of the paths its packets traversed.
// Packets of a single flowID may traverse multiple Paths (ECMP re-hash,
// packet spraying, failover), so a flowID maps to one or more Flows.
type Flow struct {
	ID   FlowID
	Path Path
}

// Time is virtual time in nanoseconds since the start of the simulation.
// Agents and the controller exchange Time values; there is no wall clock
// anywhere in the data path so experiments are deterministic.
type Time int64

// Common time units expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// TimeEnd is the wildcard upper bound ("since ti" queries use ⟨ti, ?⟩).
const TimeEnd Time = 1<<63 - 1

// String renders the time in seconds.
func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)/float64(Second)) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// TimeRange is a pair of timestamps ⟨From, To⟩, inclusive on both ends.
// From==0 means "since the beginning"; To==TimeEnd means "until now".
type TimeRange struct {
	From, To Time
}

// AllTime matches every timestamp.
var AllTime = TimeRange{0, TimeEnd}

// Since returns the range ⟨t, ?⟩.
func Since(t Time) TimeRange { return TimeRange{t, TimeEnd} }

// Overlaps reports whether [r.From, r.To] intersects [from, to].
func (r TimeRange) Overlaps(from, to Time) bool {
	return from <= r.To && to >= r.From
}

// Contains reports whether t lies inside the range.
func (r TimeRange) Contains(t Time) bool { return t >= r.From && t <= r.To }

// String renders the range.
func (r TimeRange) String() string {
	to := "*"
	if r.To != TimeEnd {
		to = r.To.String()
	}
	return fmt.Sprintf("[%s,%s]", r.From, to)
}

// TagKind distinguishes the header fields used to carry sampled link IDs.
type TagKind uint8

// Header fields usable for trajectory information (§3.1).
const (
	// TagVLAN is a 12-bit VLAN identifier. Commodity ASICs parse at most
	// two stacked VLAN tags (QinQ) at line rate; a third forces a rule
	// miss and the packet is punted to the controller.
	TagVLAN TagKind = iota
	// TagDSCP is the 6-bit DSCP field, used by the VL2 scheme to sample
	// the ToR→aggregate link before spending VLAN tags.
	TagDSCP
)

// Tag is one sampled-link identifier carried in a packet header.
type Tag struct {
	Kind  TagKind
	Value uint16 // 12 bits for VLAN, 6 bits for DSCP
}

// String renders the tag.
func (t Tag) String() string {
	switch t.Kind {
	case TagVLAN:
		return fmt.Sprintf("vlan:%d", t.Value)
	case TagDSCP:
		return fmt.Sprintf("dscp:%d", t.Value)
	}
	return fmt.Sprintf("tag(%d):%d", t.Kind, t.Value)
}

// MaxVLANTags is the number of stacked VLAN tags a commodity switch ASIC
// parses at line rate (QinQ). Exceeding it punts the packet to the
// controller — the mechanism PathDump leverages to trap suspiciously long
// paths and routing loops (§3.1, §4.5).
const MaxVLANTags = 2

// VLANBits is the width of a VLAN identifier and LinkIDSpace the number of
// distinct global link IDs it can carry (4096 in the paper).
const (
	VLANBits    = 12
	LinkIDSpace = 1 << VLANBits
	DSCPBits    = 6
	DSCPSpace   = 1 << DSCPBits
)

// Record is one TIB entry: statistics for packets of one flow that
// traversed one path — ⟨flow ID, path, stime, etime, #bytes, #pkts⟩
// exactly as in Figure 2 of the paper.
type Record struct {
	Flow  FlowID
	Path  Path
	STime Time
	ETime Time
	Bytes uint64
	Pkts  uint64
}

// Overlaps reports whether the record's active interval intersects r.
func (rec *Record) Overlaps(r TimeRange) bool { return r.Overlaps(rec.STime, rec.ETime) }

// Duration is the record's active time span.
func (rec *Record) Duration() Time { return rec.ETime - rec.STime }

// String renders the record compactly.
func (rec *Record) String() string {
	return fmt.Sprintf("%s via %s %s..%s %dB/%dpkts",
		rec.Flow, rec.Path, rec.STime, rec.ETime, rec.Bytes, rec.Pkts)
}

// Reason codes attached to Alarm() calls (§2.1).
type Reason string

// Alarm reasons used by the monitoring module and debugging applications.
const (
	ReasonPoorPerf        Reason = "POOR_PERF"          // TCP performance alert
	ReasonPathConformance Reason = "PC_FAIL"            // path conformance violation
	ReasonLongPath        Reason = "LONG_PATH"          // suspiciously long path trapped in-network
	ReasonLoop            Reason = "LOOP"               // routing loop detected
	ReasonInvalidTraj     Reason = "INVALID_TRAJECTORY" // trajectory inconsistent with topology ground truth
	ReasonSprayImbalance  Reason = "SPRAY_IMBALANCE"    // uneven subflow split under packet spraying
	ReasonPolarized       Reason = "ECMP_POLARIZED"     // degenerate ECMP hashing concentrates flows on one equal-cost link
	ReasonIncast          Reason = "INCAST"             // synchronized many-to-one microburst at a receiver
	ReasonDDoS            Reason = "DDOS_SUSPECT"       // traffic concentration from many sources at a victim
)

// Alarm is raised by an agent toward the controller: a flow, a reason code,
// and the list of paths implicated (§2.1 Alarm(flowID, Reason, Paths)).
type Alarm struct {
	Host   HostID
	Flow   FlowID
	Reason Reason
	Paths  []Path
	At     Time
}

// String renders the alarm.
func (a Alarm) String() string {
	return fmt.Sprintf("[%s] %s %s (%d paths) at %s", a.Reason, a.Host, a.Flow, len(a.Paths), a.At)
}
