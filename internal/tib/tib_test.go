package tib

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pathdump/internal/cherrypick"
	"pathdump/internal/types"
)

func flowN(n int) types.FlowID {
	return types.FlowID{SrcIP: types.IP(n), DstIP: 99, SrcPort: uint16(n), DstPort: 80, Proto: 6}
}

func TestMemoryAggregatesPerPath(t *testing.T) {
	m := NewMemory(0)
	f := flowN(1)
	h1 := cherrypick.Header{VLANs: []uint16{3}}
	h2 := cherrypick.Header{VLANs: []uint16{4}}
	m.Update(10, f, h1, 100, false)
	m.Update(20, f, h1, 200, false)
	m.Update(30, f, h2, 50, false)
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 per-path records", m.Len())
	}
	live := m.AppendLive(nil, nil, types.AllTime)
	if live[0].Bytes != 300 || live[0].Pkts != 2 || live[0].STime != 10 || live[0].ETime != 20 {
		t.Errorf("first record = %+v", live[0])
	}
	if live[1].Bytes != 50 || live[1].Pkts != 1 {
		t.Errorf("second record = %+v", live[1])
	}
}

func TestMemoryEviction(t *testing.T) {
	m := NewMemory(5 * types.Second)
	f1, f2 := flowN(1), flowN(2)
	h := cherrypick.Header{VLANs: []uint16{1}}
	m.Update(0, f1, h, 10, false)
	m.Update(1*types.Second, f2, h, 10, false)

	// FIN-based eviction removes only that flow.
	m.Update(2*types.Second, f1, h, 10, true)
	ev := m.EvictFlow(f1)
	if len(ev) != 1 || !ev[0].Fin || ev[0].Flow != f1 {
		t.Fatalf("EvictFlow = %+v", ev)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after FIN eviction", m.Len())
	}

	// Idle eviction at t=6s only covers records idle ≥5 s.
	if got := m.EvictIdle(5 * types.Second); len(got) != 0 {
		t.Fatalf("premature idle eviction: %+v", got)
	}
	if got := m.EvictIdle(6 * types.Second); len(got) != 1 || got[0].Flow != f2 {
		t.Fatalf("idle eviction = %+v", got)
	}
	if m.Len() != 0 {
		t.Error("memory not empty")
	}

	// Flush drains everything.
	m.Update(10*types.Second, f1, h, 1, false)
	m.Update(10*types.Second, f2, h, 1, false)
	if got := m.Flush(); len(got) != 2 || m.Len() != 0 {
		t.Fatalf("Flush = %d records, Len = %d", len(got), m.Len())
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	p1, p2, p3 := types.Path{1}, types.Path{2}, types.Path{3}
	ka := cherrypick.Header{VLANs: []uint16{1}}.Pack()
	kb := cherrypick.Header{VLANs: []uint16{2}}.Pack()
	kc := cherrypick.Header{DSCP: 1, VLANs: []uint16{1}}.Pack()
	c.Put(1, ka, p1)
	c.Put(1, kb, p2)
	if _, ok := c.Get(1, ka); !ok {
		t.Fatal("miss on fresh entry")
	}
	c.Put(1, kc, p3) // evicts kb (LRU)
	if _, ok := c.Get(1, kb); ok {
		t.Error("LRU entry not evicted")
	}
	if got, ok := c.Get(1, ka); !ok || !got.Equal(p1) {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	// Update in place.
	c.Put(1, ka, p2)
	if got, _ := c.Get(1, ka); !got.Equal(p2) {
		t.Error("Put did not update existing entry")
	}
	if c.HitRate() <= 0 || c.HitRate() >= 1 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
	if hits, misses := c.Stats(); hits != 3 || misses != 1 {
		t.Errorf("Stats = %d hits, %d misses, want 3 and 1", hits, misses)
	}
	// Distinct sources do not collide.
	c.Put(2, ka, p3)
	if got, _ := c.Get(2, ka); !got.Equal(p3) {
		t.Error("source IP not part of the key")
	}
}

func mkRecord(f types.FlowID, p types.Path, st, et types.Time, b, k uint64) types.Record {
	return types.Record{Flow: f, Path: p, STime: st, ETime: et, Bytes: b, Pkts: k}
}

func TestStoreQueries(t *testing.T) {
	s := NewStore()
	f1, f2 := flowN(1), flowN(2)
	pA := types.Path{1, 10, 2}
	pB := types.Path{1, 11, 2}
	s.Add(mkRecord(f1, pA, 0, 10, 1000, 10))
	s.Add(mkRecord(f1, pB, 5, 20, 500, 5))
	s.Add(mkRecord(f2, pA, 100, 200, 9000, 9))

	// getFlows on a concrete link.
	flows := s.Flows(types.LinkID{A: 1, B: 10}, types.AllTime)
	if len(flows) != 2 {
		t.Fatalf("Flows(1-10) = %v", flows)
	}
	// Time range excludes f2.
	flows = s.Flows(types.LinkID{A: 1, B: 10}, types.TimeRange{From: 0, To: 50})
	if len(flows) != 1 || flows[0].ID != f1 {
		t.Fatalf("time-filtered Flows = %v", flows)
	}
	// Wildcard incoming link of switch 2.
	flows = s.Flows(types.LinkID{A: types.WildcardSwitch, B: 2}, types.AllTime)
	if len(flows) != 3 {
		t.Fatalf("wildcard Flows = %v", flows)
	}
	// getPaths with wildcards.
	paths := s.Paths(f1, types.AnyLink, types.AllTime)
	if len(paths) != 2 {
		t.Fatalf("Paths = %v", paths)
	}
	paths = s.Paths(f1, types.LinkID{A: 1, B: 11}, types.AllTime)
	if len(paths) != 1 || !paths[0].Equal(pB) {
		t.Fatalf("link-filtered Paths = %v", paths)
	}
	// getCount: per path and aggregated.
	b, k := s.Count(types.Flow{ID: f1, Path: pA}, types.AllTime)
	if b != 1000 || k != 10 {
		t.Errorf("Count(pA) = %d/%d", b, k)
	}
	b, k = s.Count(types.Flow{ID: f1}, types.AllTime)
	if b != 1500 || k != 15 {
		t.Errorf("Count(all paths) = %d/%d", b, k)
	}
	if b, k := s.Count(types.Flow{ID: flowN(9)}, types.AllTime); b != 0 || k != 0 {
		t.Errorf("Count(unknown) = %d/%d", b, k)
	}
}

func TestStoreDirectionality(t *testing.T) {
	s := NewStore()
	s.Add(mkRecord(flowN(1), types.Path{1, 2, 3}, 0, 1, 1, 1))
	if got := s.Flows(types.LinkID{A: 2, B: 1}, types.AllTime); len(got) != 0 {
		t.Error("reverse link matched a forward traversal")
	}
}

// TestPostingsMatchBruteForceProperty: the flow and link postings are an
// optimisation. For arbitrary records and queries, getFlows, getCount and
// Scan — by link, by flow, and by both — must answer exactly as a linear
// filter over the flat list of added records does, in arrival order.
func TestPostingsMatchBruteForceProperty(t *testing.T) {
	s := NewStore()
	var all []types.Record
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 500; i++ {
		f := flowN(rng.Intn(20))
		p := types.Path{
			types.SwitchID(rng.Intn(4)),
			types.SwitchID(4 + rng.Intn(4)),
			types.SwitchID(8 + rng.Intn(4)),
		}
		st := types.Time(rng.Intn(100))
		rec := mkRecord(f, p, st, st+types.Time(rng.Intn(50)), uint64(rng.Intn(10000)), uint64(rng.Intn(10)))
		s.Add(rec)
		all = append(all, rec)
	}
	want := func(flow *types.FlowID, link types.LinkID, tr types.TimeRange) (out []types.Record) {
		for _, r := range all {
			if r.Overlaps(tr) && (flow == nil || r.Flow == *flow) && (link == types.AnyLink || r.Path.ContainsLink(link)) {
				out = append(out, r)
			}
		}
		return out
	}
	got := func(flow *types.FlowID, link types.LinkID, tr types.TimeRange) (out []types.Record) {
		s.Scan(flow, link, tr, func(r *types.Record) { out = append(out, *r) })
		return out
	}
	same := func(a, b []types.Record) bool { return slices.EqualFunc(a, b, recEqual) }
	check := func(a, b uint32) bool {
		link := types.LinkID{A: types.SwitchID(a % 5), B: types.SwitchID(4 + b%5)}
		if a%7 == 0 {
			link.A = types.WildcardSwitch
		}
		if b%7 == 0 {
			link.B = types.WildcardSwitch
		}
		tr := types.TimeRange{From: types.Time(a % 60), To: types.Time(60 + b%60)}
		f := flowN(int(a % 20))
		if !same(got(nil, link, tr), want(nil, link, tr)) || !same(got(&f, link, tr), want(&f, link, tr)) ||
			!same(got(&f, types.AnyLink, tr), want(&f, types.AnyLink, tr)) {
			return false
		}
		var seen types.FlowSet
		var flows []types.Flow
		for _, r := range want(nil, link, tr) {
			if _, fresh := seen.Add(r.Flow, r.Path); fresh {
				flows = append(flows, types.Flow{ID: r.Flow, Path: r.Path})
			}
		}
		if !slices.EqualFunc(s.Flows(link, tr), flows, func(x, y types.Flow) bool { return x.ID == y.ID && x.Path.Equal(y.Path) }) {
			return false
		}
		var wb, wk uint64
		for _, r := range want(&f, types.AnyLink, tr) {
			wb, wk = wb+r.Bytes, wk+r.Pkts
		}
		gb, gk := s.Count(types.Flow{ID: f}, tr)
		return gb == wb && gk == wk
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.Add(mkRecord(flowN(i), types.Path{1, types.SwitchID(i), 2}, types.Time(i), types.Time(i+1), uint64(i), 1))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored %d of %d records", restored.Len(), s.Len())
	}
	// Indexes were rebuilt.
	if got := restored.Flows(types.LinkID{A: 1, B: 50}, types.AllTime); len(got) != 1 {
		t.Errorf("index not rebuilt: %v", got)
	}
	if s, err := ReadSnapshot(bytes.NewBufferString("garbage")); err == nil || s != nil {
		t.Errorf("garbage snapshot: error %v, a store returned: %t; want an error and no store", err, s != nil)
	}
}

func TestStoreScale(t *testing.T) {
	// §5.3: 240 K flow entries ≈ one hour of flows at a server. Make
	// sure the store handles that volume and stays queryable.
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewStore()
	for i := 0; i < 240_000; i++ {
		f := flowN(i)
		p := types.Path{types.SwitchID(i % 8), types.SwitchID(8 + i%8), types.SwitchID(16 + i%4)}
		s.Add(mkRecord(f, p, types.Time(i), types.Time(i+10), 1000, 1))
	}
	if s.Len() != 240_000 {
		t.Fatal("missing records")
	}
	link := types.LinkID{A: 0, B: 8}
	if got := len(s.Flows(link, types.AllTime)); got != 30_000 {
		t.Errorf("Flows on hot link = %d, want 30000", got)
	}
}

func ExampleStore_Flows() {
	s := NewStore()
	f := types.FlowID{SrcIP: 0x0A000002, DstIP: 0x0A010002, SrcPort: 1234, DstPort: 80, Proto: 6}
	s.Add(types.Record{Flow: f, Path: types.Path{0, 8, 16, 10, 2}, STime: 0, ETime: 5, Bytes: 4000, Pkts: 4})
	for _, fl := range s.Flows(types.LinkID{A: 8, B: 16}, types.AllTime) {
		fmt.Println(fl.ID, "via", fl.Path)
	}
	// Output: 10.0.0.2:1234->10.1.0.2:80/6 via s0>s8>s16>s10>s2
}
