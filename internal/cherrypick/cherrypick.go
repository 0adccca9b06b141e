// Package cherrypick implements the CherryPick link-sampling technique
// [SOSR'15] that PathDump uses to trace packet trajectories with close to
// optimal packet-header space (§3.1 of the PathDump paper).
//
// Instead of embedding every hop, switches embed a few carefully sampled
// link identifiers — 12-bit values carried in (at most two) VLAN tags, plus
// the 6-bit DSCP field for VL2 — and the edge reconstructs the end-to-end
// path from the samples plus the static topology. A packet that would need
// a third VLAN tag (a suspiciously long path, e.g. a routing loop) causes a
// rule miss at the next switch ASIC and is punted to the controller.
//
// Sampling rules (fat-tree, arity k, derived in DESIGN.md):
//
//   - first up-leg agg→core (packet carries no VLAN tag yet): tag the core
//     index c — the source pod is known from srcIP, and core c attaches to
//     the aggregation switch at position c/(k/2) in every pod, so one tag
//     fixes both the first aggregation switch and the core. (k/2)² values.
//   - re-ascending agg→core (packet already tagged): tag ⟨pod, core-port⟩ —
//     the previous core is known from the preceding tag, fixing the
//     aggregation position, so the pod and port complete the 2-hop detour.
//     k·(k/2) values.
//   - ToR→agg for intra-pod destinations (first hop): tag the aggregation
//     position. k/2 values.
//   - ToR→agg re-ascent after a downward detour: tag ⟨ToR position, agg
//     position⟩ — identifies both the wrong ToR descended into and the next
//     aggregation switch. (k/2)² values, range shared with the first-up-leg
//     class (the decoder's walk context disambiguates).
//
// One extra link is sampled per two extra hops, so two VLAN tags trace any
// path up to shortest+2, and shortest+4 paths trap at the controller —
// both exactly as the paper states. The 12-bit space supports fat-trees up
// to k=72 ((k/2)² + k·(k/2) + k/2 = 3996 ≤ 4096), matching the paper's
// "72-port switches (about 93K servers)".
//
// For VL2, the DSCP field samples the ToR→aggregate uplink first; VLAN tags
// then sample the agg→intermediate and intermediate→agg links, so a 6-hop
// path ends with one DSCP value and two VLAN tags (§3.1).
package cherrypick

import (
	"fmt"

	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// Header is the trajectory information carried in a packet header: the
// DSCP field (0 = unused, as the VL2 scheme checks) and the stacked VLAN
// tags in push order. It is the wire form — what switches push onto and
// Reconstruct reads; anything that stores or keys a header holds it
// Packed.
type Header struct {
	DSCP  uint8
	VLANs []uint16
}

// Packed is a Header in comparable, fixed-size form: the trajectory
// memory keeps one per open record and the trajectory cache keys on it
// as it is, so the datapath neither copies a tag slice nor builds a
// string per packet. The first three VLAN tags sit inline — a third tag
// already punts the packet to the controller, so that is every header
// the fabric can deliver, packed without an allocation. A longer tag
// list (a direct Receive, a DisableTagging rig) spills its remainder, two
// big-endian bytes per tag, into more: packing then allocates, and two
// headers are equal exactly when their DSCP and full tag lists are.
type Packed struct {
	DSCP uint8
	n    uint8 // tags held inline
	tags [3]uint16
	more string
}

// Pack converts the header to its comparable form.
func (h Header) Pack() Packed {
	p := Packed{DSCP: h.DSCP}
	p.n = uint8(copy(p.tags[:], h.VLANs))
	if rest := h.VLANs[p.n:]; len(rest) > 0 {
		b := make([]byte, 2*len(rest))
		for i, v := range rest {
			b[2*i], b[2*i+1] = byte(v>>8), byte(v)
		}
		p.more = string(b)
	}
	return p
}

// Header converts back to the wire form; the tag slice is the result's
// own.
func (p Packed) Header() Header {
	h := Header{DSCP: p.DSCP}
	if p.n > 0 {
		h.VLANs = make([]uint16, p.n, int(p.n)+len(p.more)/2)
		copy(h.VLANs, p.tags[:])
		for i := 0; i+1 < len(p.more); i += 2 {
			h.VLANs = append(h.VLANs, uint16(p.more[i])<<8|uint16(p.more[i+1]))
		}
	}
	return h
}

// Tags converts the header to the generic tag list (DSCP first).
func (h Header) Tags() []types.Tag {
	var out []types.Tag
	if h.DSCP != 0 {
		out = append(out, types.Tag{Kind: types.TagDSCP, Value: uint16(h.DSCP)})
	}
	for _, v := range h.VLANs {
		out = append(out, types.Tag{Kind: types.TagVLAN, Value: v})
	}
	return out
}

// Overflow reports whether the header exceeds the commodity-ASIC parse
// limit, forcing a rule miss and a punt to the controller at the next
// switch that needs an IP lookup.
func (h Header) Overflow() bool { return len(h.VLANs) > types.MaxVLANTags }

// Scheme decides which links are sampled and reconstructs paths.
type Scheme interface {
	// Tag returns the identifier a switch pushes when forwarding a packet
	// from `from` to `to` toward dst, given the current header, and
	// whether anything is pushed at all. Rules are static: they depend
	// only on topology position, the destination prefix, and whether the
	// DSCP/VLAN fields are already in use — all matchable by commodity
	// OpenFlow pipelines.
	Tag(from, to types.SwitchID, dst types.IP, hdr Header) (types.Tag, bool)

	// Reconstruct rebuilds the end-to-end switch path from the source and
	// destination addresses plus the sampled link IDs. It fails if the
	// samples are inconsistent with the ground-truth topology (the §2.4
	// incorrect-switchID defence).
	Reconstruct(src, dst types.IP, hdr Header) (types.Path, error)

	// SampledLinks decodes the VLAN tags of a (possibly incomplete)
	// trajectory into the concrete links they sample, in tag order. The
	// controller's loop detector uses it to spot a repeated link among
	// the tags of a trapped packet (§4.5). Partial results are returned
	// alongside a non-nil error when later tags fail to decode.
	SampledLinks(src, dst types.IP, hdr Header) ([]types.LinkID, error)

	// RuleCount returns the number of static flow rules the scheme
	// installs at the given switch.
	RuleCount(sw types.SwitchID) int
}

// New returns the sampling scheme for a topology.
func New(t *topology.Topology) (Scheme, error) {
	switch t.Kind {
	case topology.FatTreeKind:
		return NewFatTree(t)
	case topology.VL2Kind:
		return NewVL2(t)
	}
	return nil, fmt.Errorf("cherrypick: unsupported topology kind %v", t.Kind)
}

// Apply runs the scheme for one hop and pushes the resulting tag, if any,
// onto hdr. It is the single place both the simulator's switches and the
// tests use, so they cannot disagree.
func Apply(s Scheme, from, to types.SwitchID, dst types.IP, hdr *Header) {
	tag, ok := s.Tag(from, to, dst, *hdr)
	if !ok {
		return
	}
	switch tag.Kind {
	case types.TagDSCP:
		hdr.DSCP = uint8(tag.Value)
	case types.TagVLAN:
		hdr.VLANs = append(hdr.VLANs, tag.Value)
	}
}

// ApplyPath tags an entire switch path (for tests and offline analysis):
// it replays Tag at every hop and returns the final header.
func ApplyPath(s Scheme, p types.Path, dst types.IP) Header {
	var hdr Header
	for i := 0; i+1 < len(p); i++ {
		Apply(s, p[i], p[i+1], dst, &hdr)
	}
	return hdr
}

// ReconstructError describes a failed reconstruction; the agent converts it
// into an INVALID_TRAJECTORY alarm because it means some switch inserted an
// identifier inconsistent with the ground-truth topology (§2.4).
type ReconstructError struct {
	Src, Dst types.IP
	Hdr      Header
	Msg      string
}

// Error implements the error interface.
func (e *ReconstructError) Error() string {
	return fmt.Sprintf("cherrypick: cannot reconstruct %v->%v tags %v: %s", e.Src, e.Dst, e.Hdr.Tags(), e.Msg)
}
