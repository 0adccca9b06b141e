package types

import (
	"testing"
	"testing/quick"
)

func TestSwitchIDString(t *testing.T) {
	if got := SwitchID(7).String(); got != "s7" {
		t.Errorf("SwitchID(7) = %q, want s7", got)
	}
	if got := WildcardSwitch.String(); got != "*" {
		t.Errorf("wildcard = %q, want *", got)
	}
}

func TestIPString(t *testing.T) {
	if got := IP(0x0A000102).String(); got != "10.0.1.2" {
		t.Errorf("IP = %q, want 10.0.1.2", got)
	}
}

func TestFlowIDReverse(t *testing.T) {
	f := FlowID{SrcIP: 1, DstIP: 2, SrcPort: 30, DstPort: 40, Proto: ProtoTCP}
	r := f.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 40 || r.DstPort != 30 {
		t.Errorf("Reverse = %+v", r)
	}
	if rr := r.Reverse(); rr != f {
		t.Errorf("double reverse = %+v, want %+v", rr, f)
	}
}

func TestFlowIDReverseInvolution(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16, pr uint8) bool {
		id := FlowID{IP(a), IP(b), sp, dp, pr}
		return id.Reverse().Reverse() == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkIDMatches(t *testing.T) {
	tests := []struct {
		pat, link LinkID
		want      bool
	}{
		{LinkID{1, 2}, LinkID{1, 2}, true},
		{LinkID{1, 2}, LinkID{2, 1}, false},
		{LinkID{WildcardSwitch, 2}, LinkID{9, 2}, true},
		{LinkID{WildcardSwitch, 2}, LinkID{9, 3}, false},
		{LinkID{1, WildcardSwitch}, LinkID{1, 77}, true},
		{AnyLink, LinkID{5, 6}, true},
	}
	for _, tt := range tests {
		if got := tt.pat.Matches(tt.link); got != tt.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", tt.pat, tt.link, got, tt.want)
		}
	}
}

func TestPathBasics(t *testing.T) {
	p := Path{1, 2, 3}
	if !p.Equal(Path{1, 2, 3}) {
		t.Error("Equal failed on identical paths")
	}
	if p.Equal(Path{1, 2}) || p.Equal(Path{1, 2, 4}) {
		t.Error("Equal matched different paths")
	}
	if !p.Contains(2) || p.Contains(9) {
		t.Error("Contains wrong")
	}
	if !p.ContainsLink(LinkID{2, 3}) {
		t.Error("ContainsLink missed 2-3")
	}
	if p.ContainsLink(LinkID{3, 2}) {
		t.Error("ContainsLink matched reversed link")
	}
	if !p.ContainsLink(LinkID{WildcardSwitch, 3}) {
		t.Error("ContainsLink missed wildcard match")
	}
	links := p.Links()
	if len(links) != 2 || links[0] != (LinkID{1, 2}) || links[1] != (LinkID{2, 3}) {
		t.Errorf("Links = %v", links)
	}
	q := p.Clone()
	q[0] = 99
	if p[0] == 99 {
		t.Error("Clone aliases the original")
	}
}

func TestPathKeyUniqueness(t *testing.T) {
	seen := map[string]Path{}
	paths := []Path{{}, {1}, {1, 2}, {2, 1}, {1, 2, 3}, {258}, {1, 515}}
	for _, p := range paths {
		k := p.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, p)
		}
		seen[k] = p
	}
}

func TestPathKeyInjectiveProperty(t *testing.T) {
	f := func(a, b []uint16) bool {
		pa, pb := make(Path, len(a)), make(Path, len(b))
		for i, v := range a {
			pa[i] = SwitchID(v)
		}
		for i, v := range b {
			pb[i] = SwitchID(v)
		}
		if pa.Equal(pb) {
			return pa.Key() == pb.Key()
		}
		return pa.Key() != pb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeRange(t *testing.T) {
	r := TimeRange{100, 200}
	if !r.Overlaps(150, 300) || !r.Overlaps(0, 100) || !r.Overlaps(200, 500) {
		t.Error("Overlaps missed intersecting ranges")
	}
	if r.Overlaps(201, 300) || r.Overlaps(0, 99) {
		t.Error("Overlaps matched disjoint ranges")
	}
	if !r.Contains(100) || !r.Contains(200) || r.Contains(99) || r.Contains(201) {
		t.Error("Contains wrong")
	}
	if !AllTime.Contains(0) || !AllTime.Contains(TimeEnd) {
		t.Error("AllTime should contain everything")
	}
	s := Since(500)
	if s.Contains(499) || !s.Contains(500) || !s.Contains(TimeEnd) {
		t.Error("Since wrong")
	}
}

func TestRecordOverlapDuration(t *testing.T) {
	rec := Record{STime: 10, ETime: 30}
	if !rec.Overlaps(TimeRange{0, 10}) || !rec.Overlaps(TimeRange{30, 40}) {
		t.Error("Overlaps at boundaries failed")
	}
	if rec.Overlaps(TimeRange{31, 40}) {
		t.Error("Overlaps matched disjoint range")
	}
	if rec.Duration() != 20 {
		t.Errorf("Duration = %d, want 20", rec.Duration())
	}
}

func TestTagString(t *testing.T) {
	if got := (Tag{TagVLAN, 42}).String(); got != "vlan:42" {
		t.Errorf("tag = %q", got)
	}
	if got := (Tag{TagDSCP, 5}).String(); got != "dscp:5" {
		t.Errorf("tag = %q", got)
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v", got)
	}
	if (500 * Millisecond).Seconds() != 0.5 {
		t.Error("millisecond conversion wrong")
	}
}

// TestFlowHashDoesNotCollapse: flows whose address word equals the key's
// first word still hash apart, under the fixed store key and a random
// one. Under a single multiply of (a^k0)·(b^k1) every such flow hashed
// to the same value.
func TestFlowHashDoesNotCollapse(t *testing.T) {
	for name, k := range map[string]FlowKey{"store": storeKey, "random": NewFlowKey()} {
		seen := map[uint64]bool{}
		for i := 0; i < 1000; i++ {
			f := FlowID{SrcIP: IP(k[0] >> 32), DstIP: IP(k[0]), SrcPort: uint16(i), DstPort: 80, Proto: ProtoTCP}
			seen[k.Hash(f)] = true
		}
		if len(seen) != 1000 {
			t.Errorf("%s key: 1000 flows sharing the key's address word hash to %d values", name, len(seen))
		}
	}
}
