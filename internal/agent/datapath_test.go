package agent

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/testutil"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// datapath is one agent on a quiescent simulator fed pre-tagged packets
// straight into Receive, as experiments.DatapathBench and the ingest
// benchmark do: no switch, no TCP stack, no timer — the write path alone.
type datapath struct {
	a    *Agent
	hdrs []cherrypick.Header // one trajectory per source host
	srcs []types.IP
	pkt  netsim.Packet
	next uint32 // flow counter: every open() is a flow never seen before
}

func newDatapath(tb testing.TB, cfg Config) *datapath {
	tb.Helper()
	topo, err := topology.FatTree(4)
	if err != nil {
		tb.Fatal(err)
	}
	scheme, err := cherrypick.New(topo)
	if err != nil {
		tb.Fatal(err)
	}
	sim := netsim.New(topo, scheme, netsim.Config{Seed: 1})
	hosts := topo.Hosts()
	d := &datapath{a: New(sim, hosts[0], nil, nil, cfg)}
	r := topology.NewRouter(topo)
	rng := rand.New(rand.NewSource(1))
	for _, src := range hosts[1:] {
		paths := r.EqualCostPaths(src.IP, hosts[0].IP)
		d.srcs = append(d.srcs, src.IP)
		d.hdrs = append(d.hdrs, cherrypick.ApplyPath(scheme, paths[rng.Intn(len(paths))], hosts[0].IP))
	}
	return d
}

// open returns a flow the agent has not seen, sourced at host i.
func (d *datapath) open(i int) (types.FlowID, cherrypick.Header) {
	d.next++
	i %= len(d.srcs)
	return types.FlowID{
		SrcIP: d.srcs[i], DstIP: d.a.Host.IP,
		SrcPort: uint16(d.next), DstPort: uint16(d.next >> 16), Proto: types.ProtoTCP,
	}, d.hdrs[i]
}

// receive delivers one packet through the one reusable packet struct
// (Receive strips its header; nothing keeps the packet).
func (d *datapath) receive(f types.FlowID, hdr cherrypick.Header, fin bool) {
	d.pkt = netsim.Packet{Flow: f, Hdr: hdr, Size: 1000, Fin: fin}
	d.a.Receive(&d.pkt)
}

// mallocsPer is testing.AllocsPerRun without the rounding down: the
// datapath's numbers are fractions of an allocation per call (a posting
// list that doubles, a seal every 1,024 records), and an integer average
// would read 0.9 as nothing.
func mallocsPer(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestLongHeadersStayApart: headers longer than the three tags the
// packed form holds inline are told apart by their whole tag list. Three
// four-tag trajectories of one flow that agree on the first three tags —
// two valid core bounces and one with a garbage fourth tag, reachable by
// a direct Receive though not through the fabric — are three records in
// the memory, and on FIN each is resolved on its own: the paths and the
// one INVALID_TRAJECTORY that Reconstruct gives header by header. Keyed
// on the first three tags (as the memory once was) they were one record,
// exported under the first header's path with all three's bytes.
func TestLongHeadersStayApart(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{})
	topo := r.sim.Topo
	src := topo.Hosts()[0]
	dst := topo.HostsAt(topo.ToRID(2, 0))[0]
	a := r.agents[dst.ID]
	f := r.flow(src, dst, 4000)
	// k=4: class A (first up-leg core) is 0–3, class B (⟨pod, core port⟩
	// re-ascent) 4–11. Core 0, bounce via pod 1 to core 1, via pod 3 to
	// core 0, then the fourth tag.
	hdrs := []cherrypick.Header{
		{VLANs: []uint16{0, 7, 10, 6}},
		{VLANs: []uint16{0, 7, 10, 7}},
		{VLANs: []uint16{0, 7, 10, 4095}},
	}
	want := map[string]uint64{} // path → bytes
	invalid := 0
	for i, hdr := range hdrs {
		p, err := r.sim.Scheme.Reconstruct(f.SrcIP, f.DstIP, hdr)
		if err != nil {
			invalid++
		} else {
			want[p.String()] += uint64(100 * (i + 1))
		}
		a.Receive(&netsim.Packet{Flow: f, Hdr: hdr, Size: 100 * (i + 1), Fin: i == len(hdrs)-1})
		if i < len(hdrs)-1 && a.Mem.Len() != i+1 {
			t.Fatalf("after header %d: %d records in the memory, want %d", i, a.Mem.Len(), i+1)
		}
	}
	if len(want) != 2 || invalid != 1 {
		t.Fatalf("rig: %d distinct valid paths and %d invalid headers, want 2 and 1", len(want), invalid)
	}
	got := map[string]uint64{}
	a.Store.Scan(nil, types.AnyLink, types.AllTime, func(rec *types.Record) { got[rec.Path.String()] += rec.Bytes })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported path → bytes %v, want %v", got, want)
	}
	if a.InvalidTraj != 1 || len(r.log.alarms) != 1 || r.log.alarms[0].Reason != types.ReasonInvalidTraj {
		t.Errorf("%d invalid trajectories, alarms %v; want one INVALID_TRAJECTORY", a.InvalidTraj, r.log.alarms)
	}
	if hits, _ := a.Cache.Stats(); hits != 0 {
		t.Errorf("%d cache hits: two of the three headers shared a slot", hits)
	}
}

// TestReceiveAllocs pins what the datapath allocates. A data packet on
// an open flow: nothing — one probe of the flow index, counters bumped in
// the slab. A whole flow (open, data, FIN) with no query installed: only
// the store's share, and that is per segment, not per record — 0.027 per
// flow in this rig (the window seals each shard once: its first segment's
// entries growing from nothing, the seal's block, the next segment's
// entries seeded from the sealed one's length; 0.054 while a chain index
// beside the entries grew two more buffers, 0.083–0.091 while every
// segment regrew from nothing after a seal, 1.33 while segment.add kept
// two maps of posting slices, 7.2 before the datapath's own went: the
// entry, the cloned tag slice, the eviction result, the cache key string,
// the escaped record). The count is taken with GC off: a GC empties the
// pools the seal draws on, and each one in the window would add refills.
// One that landed before the window adds them once (0.030); the ceiling
// leaves room for that and no more, not one allocation per four flows. An event-triggered query installed adds nothing while
// records conform: the check reads the record in export's frame.
func TestReceiveAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	d := newDatapath(t, Config{SegmentRecords: 1024})
	const resident = 4000
	flows := make([]types.FlowID, resident)
	hdrs := make([]cherrypick.Header, resident)
	for i := range flows {
		flows[i], hdrs[i] = d.open(i)
		d.receive(flows[i], hdrs[i], false)
	}
	i := 0
	if got := mallocsPer(20000, func() {
		d.receive(flows[i%resident], hdrs[i%resident], false)
		i++
	}); got > 0.001 {
		t.Errorf("%.4f allocations per data packet on an open flow, want 0", got)
	}
	perFlow := func() float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return mallocsPer(20000, func() {
			old, oldHdr := flows[i%resident], hdrs[i%resident]
			flows[i%resident], hdrs[i%resident] = d.open(i)
			d.receive(flows[i%resident], hdrs[i%resident], false)
			d.receive(old, oldHdr, true)
			i++
		})
	}
	bare := perFlow()
	t.Logf("%.4f allocations per flow opened and closed, no query installed", bare)
	if bare > 0.07 {
		t.Errorf("%.4f allocations per flow opened and closed, ceiling 0.07 (the store's own share is 0.027–0.030)", bare)
	}
	if d.a.Mem.Len() != resident || d.a.InvalidTraj != 0 || d.a.Store.Len() == 0 {
		t.Fatalf("rig: %d open, %d stored, %d invalid", d.a.Mem.Len(), d.a.Store.Len(), d.a.InvalidTraj)
	}
	d.a.Install(query.Query{Op: query.OpConformance, Avoid: []types.SwitchID{9999}}, 0)
	if with := perFlow(); with > bare+0.05 {
		t.Errorf("%.2f allocations per flow with an event-triggered query, %.2f without: checking a record that conforms allocates nothing", with, bare)
	}
}

// TestViewScanAllocsDoNotGrowWithLiveEntries: a host-query over a warm
// trajectory cache resolves every live entry's header without building a
// key, and a released view brings back the buffer its lookup fills and
// the record its visitor is shown, so in steady state a scan over 1,000
// open flows allocates what one over 10 does — the scan's closures, at
// most — not a copy of the memory, and not a string per entry (1,000 of
// them, a third of all allocations on the live workload, before the cache
// keyed on the packed header).
func TestViewScanAllocsDoNotGrowWithLiveEntries(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	scan := func(open int) float64 {
		d := newDatapath(t, Config{})
		for i := 0; i < open; i++ {
			f, hdr := d.open(i)
			d.receive(f, hdr, false)
		}
		seen := 0
		p := query.Predicate{Link: types.AnyLink, Range: types.AllTime}
		allocs := testing.AllocsPerRun(20, func() {
			seen = 0
			v := d.a.view()
			v.ScanRecords(context.Background(), p, func(*types.Record) { seen++ })
			v.release()
		})
		if seen != open {
			t.Fatalf("scan saw %d of %d live entries", seen, open)
		}
		return allocs
	}
	small, large := scan(10), scan(1000)
	t.Logf("%.0f allocations per scan over 1,000 live entries, %.0f over 10", large, small)
	if large > small || large > 2 {
		t.Errorf("%.0f allocations per scan over 1,000 live entries, %.0f over 10: want the same two at most", large, small)
	}
}

// TestOneFlowQueryCopiesOneChain: beside 4,000 open flows — the paper's
// §5.3 load point — a getCount over one of them looks up that flow's
// records through the memory's flow index and copies those, not the
// memory: the view's buffer holds one entry after the scan, and a
// wildcard scan's holds all 4,000.
func TestOneFlowQueryCopiesOneChain(t *testing.T) {
	d := newDatapath(t, Config{})
	const open = 4000
	var watched types.FlowID
	for i := 0; i < open; i++ {
		f, hdr := d.open(i)
		d.receive(f, hdr, false)
		if i == open/2 {
			watched = f
			d.receive(f, hdr, false)
		}
	}
	v := d.a.view()
	defer v.release()
	if res, _ := query.ExecuteContext(context.Background(), query.Query{Op: query.OpCount, Flow: watched}, v); res.Bytes != 2000 || res.Pkts != 2 {
		t.Errorf("count = %d bytes in %d packets, want the watched flow's 2000 in 2", res.Bytes, res.Pkts)
	}
	if len(v.live) != 1 {
		t.Errorf("a one-flow count copied %d of the memory's %d entries, want the flow's 1", len(v.live), d.a.Mem.Len())
	}
	if res, _ := query.ExecuteContext(context.Background(), query.Query{Op: query.OpTopK, K: 5}, v); len(res.Top) != 5 || len(v.live) != open {
		t.Errorf("a wildcard top-5 ranked %d flows over %d copied entries, want 5 over %d", len(res.Top), len(v.live), open)
	}
}

// TestSingleFlowViewsBesideDatapath runs host-queries — whole-memory and
// single-flow — while the datapath opens, feeds and closes flows through
// the same slots. Every flow carries 1000-byte packets, so any count a
// query returns is a multiple of 1000 whatever instant it caught; under
// -race this is the check that a view's copy of the memory shares nothing
// with the slab Receive is rewriting, and — through all three calls that
// take and release a pooled view — that none is read after its release
// (the race build's poison is no multiple of 1000).
func TestSingleFlowViewsBesideDatapath(t *testing.T) {
	d := newDatapath(t, Config{})
	const resident = 256
	flows := make([]types.FlowID, resident)
	hdrs := make([]cherrypick.Header, resident)
	for i := range flows {
		flows[i], hdrs[i] = d.open(i)
		d.receive(flows[i], hdrs[i], false)
	}
	watched := flows[0] // stays open throughout
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				one, _ := d.a.ExecuteContext(context.Background(), query.Query{Op: query.OpCount, Flow: watched})
				if one.Pkts == 0 || one.Bytes != one.Pkts*1000 {
					t.Errorf("single-flow count %d bytes / %d packets", one.Bytes, one.Pkts)
					return
				}
				top, _ := d.a.ExecuteContext(context.Background(), query.Query{Op: query.OpTopK, K: 4})
				for _, fb := range top.Top {
					if fb.Bytes != fb.Pkts*1000 {
						t.Errorf("top-k entry %+v is not one flow's record", fb)
						return
					}
				}
				q := query.Query{Op: query.OpRecords, Flow: watched, Link: types.AnyLink}
				recs, err := d.a.ExecuteContext(context.Background(), q)
				streamed := 0
				serr := d.a.StreamRecords(context.Background(), q, func(rec *types.Record) {
					if rec.Pkts > 0 && rec.Bytes == rec.Pkts*1000 {
						streamed++
					}
				})
				if err != nil || serr != nil || streamed != 1 || len(recs.Records) != 1 || recs.Records[0].Bytes != recs.Records[0].Pkts*1000 {
					t.Errorf("the watched flow's open record: materialised %+v (%v), streamed %d whole (%v)", recs.Records, err, streamed, serr)
					return
				}
			}
		}()
	}
	rounds := 20000
	if testutil.RaceEnabled {
		rounds = 3000
	}
	for i := 0; i < rounds; i++ {
		s := 1 + i%(resident-1)
		d.receive(flows[s], hdrs[s], true)
		flows[s], hdrs[s] = d.open(i)
		d.receive(flows[s], hdrs[s], false)
		d.receive(watched, hdrs[0], false)
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	readers.Wait()
	if got, _ := d.a.ExecuteContext(context.Background(), query.Query{Op: query.OpCount, Flow: watched}); got.Pkts != uint64(rounds)+1 {
		t.Errorf("watched flow counts %d packets, want %d", got.Pkts, rounds+1)
	}
}

// BenchmarkReceive is the write path by the number of concurrently open
// flows. One op is one flow's life — opened by its first packet, six
// more data packets, a FIN that exports it — while `open` others stay
// resident, every one of them touched in turn. The store runs at a byte
// budget, as on ingest-steady. ns/pkt (data packets) and ns/fin are timed
// per batch of 64 flows; allocs/pkt is over all eight packets. The point
// is the shape: per-packet and per-FIN cost must not follow the number of
// open flows (when a FIN walked every resident key the 32,000 row's
// ns/fin was ≈ 64 × the 500 row's; within 2 × is the O(1) evidence).
func BenchmarkReceive(b *testing.B) {
	for _, open := range []int{500, 4000, 32000} {
		b.Run(fmt.Sprintf("open-%d", open), func(b *testing.B) {
			d := newDatapath(b, Config{RetentionBytes: 4 << 20, SegmentRecords: 1024, CompactBelow: 512})
			flows := make([]types.FlowID, open)
			hdrs := make([]cherrypick.Header, open)
			for i := range flows {
				flows[i], hdrs[i] = d.open(i)
				d.receive(flows[i], hdrs[i], false)
			}
			const batch, dataPkts = 64, 7
			var tData, tFin time.Duration
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				n := min(batch, b.N-done)
				t0 := time.Now()
				for k := 1; k < dataPkts; k++ { // six packets to flows spread round the ring
					for j := 0; j < n; j++ {
						s := (done + j + k*open/dataPkts) % open
						d.receive(flows[s], hdrs[s], false)
					}
				}
				t1 := time.Now()
				for j := 0; j < n; j++ {
					s := (done + j) % open
					d.receive(flows[s], hdrs[s], true)
				}
				t2 := time.Now()
				for j := 0; j < n; j++ { // the seventh data packet opens the slot's next flow
					s := (done + j) % open
					flows[s], hdrs[s] = d.open(s)
					d.receive(flows[s], hdrs[s], false)
				}
				tData += t1.Sub(t0) + time.Since(t2)
				tFin += t2.Sub(t1)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if d.a.InvalidTraj != 0 || d.a.Mem.Len() != open {
				b.Fatalf("%d invalid trajectories, %d open flows (want %d)", d.a.InvalidTraj, d.a.Mem.Len(), open)
			}
			b.ReportMetric(float64(tData.Nanoseconds())/float64(b.N*dataPkts), "ns/pkt")
			b.ReportMetric(float64(tFin.Nanoseconds())/float64(b.N), "ns/fin")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*(dataPkts+1)), "allocs/pkt")
		})
	}
}

// BenchmarkHostQueryLive is a host-query beside a populated trajectory
// memory, by the number of open flows (500, and the paper's 4,000): a
// wildcard top-k, which reads every open record, and a one-flow count,
// which reads that flow's. B/op is the point: the one-flow rows cost the
// same at both sizes, and the wildcard rows cost the answer and the
// top-k working set, not a copy of the memory on top.
func BenchmarkHostQueryLive(b *testing.B) {
	for _, open := range []int{500, 4000} {
		d := newDatapath(b, Config{})
		var watched types.FlowID
		for i := 0; i < open; i++ {
			f, hdr := d.open(i)
			d.receive(f, hdr, false)
			if i == open/2 {
				watched = f
			}
		}
		for _, tc := range []struct {
			name string
			q    query.Query
		}{
			{"topk", query.Query{Op: query.OpTopK, K: 100}},
			{"count-one-flow", query.Query{Op: query.OpCount, Flow: watched}},
		} {
			b.Run(fmt.Sprintf("open-%d/%s", open, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				var res query.Result
				for i := 0; i < b.N; i++ {
					res, _ = d.a.ExecuteContext(context.Background(), tc.q)
				}
				if len(res.Top) != 100 && res.Bytes != 1000 {
					b.Fatalf("answer %+v: want 100 ranked flows or the watched flow's 1000 bytes", res)
				}
			})
		}
	}
}

// TestHotStateGauges: the trajectory memory's occupancy and the
// trajectory cache's hit/miss counts are on /metrics, read under their
// own locks (a scrape needs no simulation mutex for them).
func TestHotStateGauges(t *testing.T) {
	d := newDatapath(t, Config{})
	reg := obs.NewRegistry()
	d.a.RegisterMetrics(reg, &sync.Mutex{})
	for i := 0; i < 3; i++ { // three flows from one source, so one trajectory
		f, hdr := d.open(0)
		d.receive(f, hdr, false)
		d.receive(f, hdr, i > 0) // two close, one stays open
	}
	out := reg.Expose()
	host := uint32(d.a.Host.ID)
	for _, want := range []string{
		fmt.Sprintf(`pathdump_agent_memory_entries{host="%d"} 1`, host),
		fmt.Sprintf(`pathdump_agent_cache_misses{host="%d"} 1`, host),
		fmt.Sprintf(`pathdump_agent_cache_hits{host="%d"} 1`, host),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, out)
		}
	}
}

// BenchmarkAblationTrajectoryCache isolates the trajectory cache (§3.2):
// resolving one hot header — a five-hop path from another pod — to its
// path through construct, whose cache is warm, against the topology walk
// it saves, scheme.Reconstruct on the same header.
func BenchmarkAblationTrajectoryCache(b *testing.B) {
	d := newDatapath(b, Config{})
	last := len(d.srcs) - 1 // the highest host ID: a pod away from the agent's
	src, hdr := d.srcs[last], d.hdrs[last].Pack()
	want, err := d.a.construct(src, hdr) // warms the cache
	if err != nil || len(want) != 5 {
		b.Fatalf("constructed %v, %v; want a five-hop path", want, err)
	}
	for _, tc := range []struct {
		name    string
		resolve func() (types.Path, error)
	}{
		{"cache-on", func() (types.Path, error) { return d.a.construct(src, hdr) }},
		{"cache-off", func() (types.Path, error) { return d.a.scheme.Reconstruct(src, d.a.Host.IP, hdr.Header()) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p, err := tc.resolve(); err != nil || !p.Equal(want) {
					b.Fatalf("resolved %v, %v; want %v", p, err, want)
				}
			}
		})
	}
}
