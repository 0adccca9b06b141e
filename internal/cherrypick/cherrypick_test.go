package cherrypick

import (
	"math/rand"
	"reflect"
	"testing"

	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// roundTrip tags a path hop by hop and checks reconstruction returns the
// identical path.
func roundTrip(t *testing.T, s Scheme, topo *topology.Topology, src, dst types.IP, p types.Path) Header {
	t.Helper()
	hdr := ApplyPath(s, p, dst)
	got, err := s.Reconstruct(src, dst, hdr)
	if err != nil {
		t.Fatalf("Reconstruct(%v->%v, %v, tags %v): %v", src, dst, p, hdr.Tags(), err)
	}
	if !got.Equal(p) {
		t.Fatalf("Reconstruct(%v->%v, tags %v) = %v, want %v", src, dst, hdr.Tags(), got, p)
	}
	return hdr
}

func TestFatTreeCanonicalRoundTrip(t *testing.T) {
	for _, k := range []int{4, 8} {
		topo, err := topology.FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewFatTree(topo)
		if err != nil {
			t.Fatal(err)
		}
		r := topology.NewRouter(topo)
		hosts := topo.Hosts()
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 50; trial++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for _, p := range r.EqualCostPaths(src.IP, dst.IP) {
				hdr := roundTrip(t, s, topo, src.IP, dst.IP, p)
				if len(hdr.VLANs) > 1 {
					t.Errorf("canonical path %v used %d tags, want ≤1", p, len(hdr.VLANs))
				}
			}
		}
	}
}

func TestVL2CanonicalRoundTrip(t *testing.T) {
	topo, err := topology.VL2(8, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewVL2(topo)
	if err != nil {
		t.Fatal(err)
	}
	r := topology.NewRouter(topo)
	hosts := topo.Hosts()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 80; trial++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for _, p := range r.EqualCostPaths(src.IP, dst.IP) {
			hdr := roundTrip(t, s, topo, src.IP, dst.IP, p)
			if len(hdr.VLANs) > 2 {
				t.Errorf("canonical VL2 path %v used %d VLAN tags, want ≤2", p, len(hdr.VLANs))
			}
			if len(p) > 1 && hdr.DSCP == 0 {
				t.Errorf("inter-ToR VL2 path %v left DSCP unused", p)
			}
		}
	}
}

// fig4Detour builds the paper's Figure-4 scenario: a core switch bounces a
// packet via another pod's aggregation switch when its canonical downlink
// fails, producing a 6-hop path traced with exactly two VLAN tags.
func TestFatTreeCoreBounceDetour(t *testing.T) {
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	src := topo.HostsAt(topo.ToRID(0, 0))[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	// srcToR → agg(0,0) → core0 → [link to agg(2,0) failed] →
	// agg(1,0) → core1 → agg(2,0) → dstToR
	p := types.Path{
		topo.ToRID(0, 0), topo.AggID(0, 0), topo.CoreID(0),
		topo.AggID(1, 0), topo.CoreID(1),
		topo.AggID(2, 0), topo.ToRID(2, 0),
	}
	if err := topo.ValidTrajectory(src.IP, dst.IP, p); err != nil {
		t.Fatalf("test path invalid: %v", err)
	}
	hdr := roundTrip(t, s, topo, src.IP, dst.IP, p)
	if len(hdr.VLANs) != 2 {
		t.Errorf("6-hop core bounce used %d tags, want exactly 2 (Fig. 4)", len(hdr.VLANs))
	}
	if hdr.Overflow() {
		t.Error("6-hop path must not overflow the ASIC tag limit")
	}
}

// TestFatTreeToRDetour exercises a blackhole-style detour in the
// destination pod: agg descends into the wrong ToR, which re-ascends.
func TestFatTreeToRDetour(t *testing.T) {
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	src := topo.HostsAt(topo.ToRID(0, 0))[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	p := types.Path{
		topo.ToRID(0, 0), topo.AggID(0, 1), topo.CoreID(2),
		topo.AggID(2, 1), topo.ToRID(2, 1), // wrong ToR
		topo.AggID(2, 0), topo.ToRID(2, 0),
	}
	if err := topo.ValidTrajectory(src.IP, dst.IP, p); err != nil {
		t.Fatalf("test path invalid: %v", err)
	}
	hdr := roundTrip(t, s, topo, src.IP, dst.IP, p)
	if len(hdr.VLANs) != 2 {
		t.Errorf("ToR detour used %d tags, want 2", len(hdr.VLANs))
	}
}

func TestFatTreeIntraPodDetour(t *testing.T) {
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	src := topo.HostsAt(topo.ToRID(0, 0))[0]
	dst := topo.HostsAt(topo.ToRID(0, 1))[0]
	// Canonical intra-pod: ToR(0,0)→agg(0,j)→ToR(0,1); detour bounces
	// via the other ToR first... here: agg(0,0) sends to ToR(0,0)? No —
	// detour shape: src ToR → agg(0,0) → (blackhole to dst ToR) back via
	// ToR? A realistic 4-hop intra-pod detour:
	p := types.Path{
		topo.ToRID(0, 0), topo.AggID(0, 0),
		topo.ToRID(0, 0), // bounced back down (failover)
		topo.AggID(0, 1), topo.ToRID(0, 1),
	}
	if err := topo.ValidTrajectory(src.IP, dst.IP, p); err != nil {
		t.Fatalf("test path invalid: %v", err)
	}
	hdr := roundTrip(t, s, topo, src.IP, dst.IP, p)
	if len(hdr.VLANs) != 2 {
		t.Errorf("intra-pod detour used %d tags, want 2", len(hdr.VLANs))
	}
}

func TestFatTreeOverflowAtShortestPlus4(t *testing.T) {
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	// 8-hop path: two core bounces.
	p := types.Path{
		topo.ToRID(0, 0), topo.AggID(0, 0), topo.CoreID(0),
		topo.AggID(1, 0), topo.CoreID(1),
		topo.AggID(3, 0), topo.CoreID(0),
		topo.AggID(2, 0), topo.ToRID(2, 0),
	}
	hdr := ApplyPath(s, p, dst.IP)
	if !hdr.Overflow() {
		t.Errorf("shortest+4 path carries %d tags; want overflow (>%d) to trap at controller",
			len(hdr.VLANs), types.MaxVLANTags)
	}
}

func TestFatTreeCapacityLimit(t *testing.T) {
	topo72, err := topology.FatTree(72)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFatTree(topo72); err != nil {
		t.Errorf("k=72 must fit the 12-bit space (paper's limit): %v", err)
	}
	topo74, err := topology.FatTree(74)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFatTree(topo74); err == nil {
		t.Error("k=74 should exceed the 12-bit link-ID space")
	}
}

func TestReconstructRejectsGarbage(t *testing.T) {
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	src := topo.Hosts()[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	cases := []Header{
		{},                               // no tags on an inter-pod flow
		{VLANs: []uint16{4095}},          // value outside every class
		{VLANs: []uint16{0, 4095}},       // valid class A then garbage
		{VLANs: []uint16{uint16(4 + 0)}}, // class A core index 4 (out of range for k=4)
	}
	for i, hdr := range cases {
		if _, err := s.Reconstruct(src.IP, dst.IP, hdr); err == nil {
			t.Errorf("case %d: garbage header %v accepted", i, hdr.Tags())
		}
	}
	// Same-ToR flow carrying tags is inconsistent.
	same := topo.HostsAt(topo.ToRID(0, 0))[1]
	if _, err := s.Reconstruct(src.IP, same.IP, Header{VLANs: []uint16{1}}); err == nil {
		t.Error("same-ToR flow with tags accepted")
	}
	// Unknown addresses.
	if _, err := s.Reconstruct(types.IP(1), dst.IP, Header{}); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestReconstructDetectsWrongSwitchID(t *testing.T) {
	// §2.4: a switch inserting a wrong ID usually yields an infeasible
	// trajectory. Tamper with a valid tag sequence and expect either an
	// error or a different (but feasible) path — never a silent match.
	topo, _ := topology.FatTree(4)
	s, _ := NewFatTree(topo)
	r := topology.NewRouter(topo)
	src := topo.Hosts()[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	p := r.EqualCostPaths(src.IP, dst.IP)[0]
	hdr := ApplyPath(s, p, dst.IP)
	if len(hdr.VLANs) != 1 {
		t.Fatalf("unexpected tag count %d", len(hdr.VLANs))
	}
	tampered := hdr.Pack().Header()
	tampered.VLANs[0] = 4090 // outside all classes for k=4
	if _, err := s.Reconstruct(src.IP, dst.IP, tampered); err == nil {
		t.Error("tampered tag accepted")
	}
}

func TestVL2DetourTrapsAndErrors(t *testing.T) {
	topo, _ := topology.VL2(8, 6, 3)
	s, _ := NewVL2(topo)
	// A ToR-level detour in the destination group adds a third VLAN tag:
	// ToR0 → agg(2g) → int0 → agg(2g') → wrong ToR → agg(2g'+1) → dst.
	src := topo.Hosts()[0]
	var dst *topology.Host
	for _, h := range topo.Hosts() {
		if h.Pod == 2 {
			dst = h
			break
		}
	}
	if dst == nil {
		t.Fatal("no host in group 2")
	}
	srcToR := topo.Switch(src.ToR)
	agg1 := srcToR.Up[0]
	in := topo.Switch(agg1).Up[0]
	aggD := topo.VL2AggID(4) // group 2
	dstToR := topo.Switch(dst.ToR)
	var wrongToR types.SwitchID
	for _, cand := range topo.Switch(aggD).Down {
		if cand != dst.ToR {
			wrongToR = cand
			break
		}
	}
	aggD2 := dstToR.Up[1]
	p := types.Path{src.ToR, agg1, in, aggD, wrongToR, aggD2, dst.ToR}
	if err := topo.ValidTrajectory(src.IP, dst.IP, p); err != nil {
		t.Fatalf("test path invalid: %v", err)
	}
	hdr := ApplyPath(s, p, dst.IP)
	if !hdr.Overflow() {
		t.Errorf("VL2 detour carries %d VLAN tags, want overflow", len(hdr.VLANs))
	}
	// Garbage rejection.
	if _, err := s.Reconstruct(src.IP, dst.IP, Header{DSCP: 1, VLANs: []uint16{4095}}); err == nil {
		t.Error("garbage VL2 tag accepted")
	}
	if _, err := s.Reconstruct(src.IP, dst.IP, Header{}); err == nil {
		t.Error("unused DSCP on inter-ToR flow accepted")
	}
}

func TestHeaderHelpers(t *testing.T) {
	h := Header{DSCP: 3, VLANs: []uint16{7, 9}}
	c := h.Pack().Header()
	if !reflect.DeepEqual(c, h) {
		t.Errorf("Pack().Header() = %+v, want %+v", c, h)
	}
	c.VLANs[0] = 99
	if h.VLANs[0] != 7 {
		t.Error("Pack().Header() aliases VLANs")
	}
	tags := h.Tags()
	if len(tags) != 3 || tags[0].Kind != types.TagDSCP || tags[1].Value != 7 {
		t.Errorf("Tags = %v", tags)
	}
	if h.Pack() == c.Pack() {
		t.Error("distinct headers pack alike")
	}
	if (Header{VLANs: []uint16{1, 2}}).Overflow() {
		t.Error("2 tags must not overflow")
	}
	if !(Header{VLANs: []uint16{1, 2, 3}}).Overflow() {
		t.Error("3 tags must overflow")
	}
}

func TestRuleCounts(t *testing.T) {
	ft, _ := topology.FatTree(4)
	s, _ := NewFatTree(ft)
	if got := s.RuleCount(ft.ToRID(0, 0)); got != 4 { // 2 uplinks × 2
		t.Errorf("ToR rules = %d, want 4", got)
	}
	if got := s.RuleCount(ft.CoreID(0)); got != 0 {
		t.Errorf("core rules = %d, want 0", got)
	}
	v2, _ := topology.VL2(8, 6, 2)
	sv, _ := NewVL2(v2)
	if got := sv.RuleCount(v2.VL2ToRID(0)); got != 4 { // 2 ports × 2 rules
		t.Errorf("VL2 ToR rules = %d, want 4", got)
	}
	if got := sv.RuleCount(v2.IntID(0)); got != 12 { // 6 ports × 2
		t.Errorf("VL2 intermediate rules = %d, want 12", got)
	}
}

func TestNewDispatch(t *testing.T) {
	ft, _ := topology.FatTree(4)
	if _, err := New(ft); err != nil {
		t.Errorf("New(fattree): %v", err)
	}
	v2, _ := topology.VL2(8, 6, 2)
	if _, err := New(v2); err != nil {
		t.Errorf("New(vl2): %v", err)
	}
}
