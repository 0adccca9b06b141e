package bench

import (
	"fmt"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// ingest-steady: one agent's write path at its retention bound.
//
// The harness injects pre-tagged packets straight into Agent.Receive in
// bursts of burstPkts, advancing the virtual clock 1 ms per burst via
// sim.Run so idle sweeps, SegmentSpan seals and record time bounds are
// real. 4,000 flows are open at any time (the paper's §5.3 load
// point); a flow's last packet carries FIN, which exports its record and
// hands its slot to a fresh flow. Span seals leave a few hundred records
// per shard and segment, so byte-budget eviction and compaction are both
// active — the regime BenchmarkChurn prices at ~5x per op. No query, no
// HTTP: a change to rpc, wire or controller must not move this workload.
const (
	burstPkts   = 1000
	burstTick   = types.Millisecond
	ingestSeal  = 1024
	ingestSmall = 512
)

// ingestShape is the part of the workload the smoke test shrinks.
// SegmentSpan must exceed the longest flow (32 packets, one per lap of
// the open flows), or every long record forces a seal of its own.
type ingestShape struct {
	open   int        // concurrently open flows
	span   types.Time // SegmentSpan
	budget int64      // RetentionBytes
}

var (
	ingestFull  = ingestShape{open: 4000, span: 200 * types.Millisecond, budget: 16 << 20}
	ingestSmoke = ingestShape{open: 400, span: 20 * types.Millisecond, budget: 256 << 10}
)

type ingestWorkload struct {
	cfg    Config
	fab    *fabric
	ag     *agent.Agent
	id     ident
	slots  []flowSlot
	cursor int
	made   uint64 // flows created so far
	fins   uint64 // FIN packets injected so far
	burst  []pktRec
	digest uint64
	shape  ingestShape

	shadow   *shadowTIB
	clockNs  float64 // cost of one time.Now pair, subtracted from per-packet timings
	recvData time.Duration
	recvFin  time.Duration
	nData    int
	nFin     int

	// counters at the start of the (last) window
	stored0, evicted0, seals0, compactions0, pkts0, fins0 uint64
}

// flowSlot is one open flow: what its next packet looks like and how
// many are left.
type flowSlot struct {
	flow types.FlowID
	hdr  cherrypick.Header
	path types.Path
	left int
	sent int
}

// pktRec is one generated packet, kept for the burst so the traced run
// can feed the identical stream to the shadow TIB.
type pktRec struct {
	flow types.FlowID
	hdr  cherrypick.Header
	path types.Path
	size int
	fin  bool
}

func newIngest(cfg Config) *ingestWorkload {
	w := &ingestWorkload{cfg: cfg, id: newIdent(cfg.Seed), shape: ingestFull}
	if cfg.Small {
		w.shape = ingestSmoke
	}
	return w
}

func (w *ingestWorkload) storeConfig() agent.Config {
	return agent.Config{
		RetentionBytes: w.shape.budget,
		SegmentSpan:    w.shape.span,
		SegmentRecords: ingestSeal,
		CompactBelow:   ingestSmall,
	}
}

// open starts a fresh flow in slot s. Everything but the ports derives
// from the flow's ordinal.
func (w *ingestWorkload) open(s *flowSlot) {
	n := w.made
	w.made++
	routes := w.fab.routes[0]
	rt := &routes[mix(n)%uint64(len(routes))]
	pi := int(mix(n^0x1234) % uint64(len(rt.paths)))
	*s = flowSlot{
		flow: w.id.flow(rt.src, w.ag.Host.IP, n),
		hdr:  rt.hdrs[pi],
		path: rt.paths[pi],
		left: 2 + int(mix(n^0x9876)%31), // 2..32 packets
	}
}

func (w *ingestWorkload) build() error {
	fab, err := newFabric(4, firstHosts(1), nil, func(int) agent.Config { return w.storeConfig() })
	if err != nil {
		return err
	}
	w.fab, w.ag = fab, fab.agents[0]
	w.slots = make([]flowSlot, w.shape.open)
	w.burst = make([]pktRec, 0, burstPkts)
	w.digest = fnvOffset
	for i := range w.slots {
		s := &w.slots[i]
		w.open(s)
		w.digest = fnv(w.digest, uint64(s.flow.SrcIP)<<32|uint64(s.flow.SrcPort)<<16|uint64(s.flow.DstPort))
		w.digest = fnv(w.digest, uint64(s.left))
		// Stagger the first generation so FINs do not arrive in waves.
		s.sent = int(mix(uint64(i)^0x55) % uint64(s.left-1))
		s.left -= s.sent
	}
	if w.cfg.Trace {
		w.shadow = newShadowTIB(w.storeConfig())
		w.clockNs = clockCost()
	}
	// Warm until the store sits at its byte budget with eviction and
	// compaction both under way.
	for i := 0; ; i++ {
		w.oneBurst(nil, 0)
		if i >= 64 && w.ag.RecordsEvicted > 0 && w.ag.Store.Compactions() > 0 {
			return nil
		}
		if i > 1<<16 {
			return fmt.Errorf("store never reached its %d-byte budget (size %d, evicted %d, compactions %d)",
				w.shape.budget, w.ag.Store.SizeBytes(), w.ag.RecordsEvicted, w.ag.Store.Compactions())
		}
	}
}

// oneBurst advances the clock one tick and injects burstPkts packets,
// round-robin over the open flows. It returns the burst's latency.
func (w *ingestWorkload) oneBurst(tr *tracer, op int) time.Duration {
	w.burst = w.burst[:0]
	for i := 0; i < burstPkts; i++ {
		s := &w.slots[w.cursor]
		if w.cursor++; w.cursor == len(w.slots) {
			w.cursor = 0
		}
		s.left--
		w.burst = append(w.burst, pktRec{flow: s.flow, hdr: s.hdr, path: s.path, size: pktSize(s.sent), fin: s.left == 0})
		s.sent++
		if s.left == 0 {
			w.fins++
			w.open(s)
		}
	}
	sampled := tr != nil && op%ladderEvery == 0
	var pkt netsim.Packet
	t0 := time.Now()
	w.fab.sim.Run(w.fab.sim.Now() + burstTick)
	if !sampled {
		for i := range w.burst {
			p := &w.burst[i]
			pkt = netsim.Packet{Flow: p.flow, Size: p.size, Fin: p.fin, Hdr: p.hdr}
			w.ag.Receive(&pkt)
		}
	} else {
		// The ladder's agent rung: every Receive of this burst timed
		// on its own, by packet kind.
		for i := range w.burst {
			p := &w.burst[i]
			pkt = netsim.Packet{Flow: p.flow, Size: p.size, Fin: p.fin, Hdr: p.hdr}
			r0 := time.Now()
			w.ag.Receive(&pkt)
			d := time.Since(r0)
			if p.fin {
				w.recvFin += d
				w.nFin++
			} else {
				w.recvData += d
				w.nData++
			}
		}
	}
	lat := time.Since(t0)
	if tr != nil {
		id := tr.add(op, 0, "op", t0, lat)
		// The tib rungs: the same packets through a standalone
		// Memory and Store, stage by stage.
		w.shadow.feed(w.fab.sim.Now(), w.burst, tr, op, id)
	}
	return lat
}

func (w *ingestWorkload) verify(rep *Report) {
	rep.Digest = w.digest
	// The oracle here is arithmetic, checked in finish: every FIN must
	// have exported exactly one record, and none may be unaccounted for.
	rep.OracleDigest = fnv(fnvOffset, uint64(w.shape.budget))
}

func (w *ingestWorkload) measure(window time.Duration, m *meter, tr *tracer) {
	if tr != nil {
		// Bring the shadow to the same steady state before timing it.
		for w.shadow.evicted == 0 || w.shadow.store.Compactions() == 0 {
			w.shadow.feedOnly(w)
		}
		w.shadow.reset()
	}
	w.stored0, w.evicted0 = w.ag.RecordsStored, w.ag.RecordsEvicted
	w.seals0, w.compactions0 = w.ag.Store.Seals(), w.ag.Store.Compactions()
	w.pkts0, w.fins0 = w.ag.PacketsSeen, w.fins
	m.lat = make([]float64, 0, 1<<17)
	m.begin()
	for op := 0; time.Since(m.start) < window; op++ {
		m.lat = append(m.lat, us(w.oneBurst(tr, op)))
		m.units += burstPkts
		m.attempted += burstPkts
	}
	m.end()
}

func (w *ingestWorkload) finish(rep *Report, m *meter, tr *tracer) {
	a := w.ag
	pkts := float64(a.PacketsSeen - w.pkts0)
	stored := a.RecordsStored - w.stored0
	if want := w.fins - w.fins0; stored != want {
		rep.fail("oracle: %d records stored in the window, %d FINs injected", stored, want)
	}
	if got := uint64(a.Store.Len()) + a.RecordsEvicted; got != a.RecordsStored {
		rep.fail("oracle: Store.Len + RecordsEvicted = %d, RecordsStored = %d", got, a.RecordsStored)
	}
	if a.InvalidTraj != 0 {
		rep.fail("oracle: %d trajectories failed to reconstruct", a.InvalidTraj)
	}
	seals, compactions := a.Store.Seals()-w.seals0, a.Store.Compactions()-w.compactions0
	if compactions == 0 || a.RecordsEvicted == w.evicted0 {
		rep.fail("not at steady state: %d compactions and %d evictions inside the window", compactions, a.RecordsEvicted-w.evicted0)
	}
	rep.set("agent.records_per_pkt", float64(stored)/pkts)
	rep.set("tib.cache_hit_rate", a.Cache.HitRate())
	rep.set("tib.compactions", float64(compactions))
	rep.set("tib.seals", float64(seals))
	rep.set("tib.segments", float64(a.Store.Segments()))
	if n := a.Store.Len(); n > 0 {
		rep.set("tib.bytes_per_record", float64(a.Store.SizeBytes())/float64(n))
	}
	if tr == nil {
		return
	}
	sh := w.shadow
	perPkt := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	recvData := perPkt(w.recvData, w.nData) - w.clockNs
	recvFin := perPkt(w.recvFin, w.nFin) - w.clockNs
	recvAll := perPkt(w.recvData+w.recvFin, w.nData+w.nFin) - w.clockNs
	tibAll := perPkt(sh.tUpdate+sh.tEvictFlow+sh.tAdd+sh.tEvict+sh.tCompact, sh.pkts)
	rep.set("agent.receive_data_ns", recvData)
	rep.set("agent.receive_fin_ns", recvFin)
	// The shadow runs cache-cold behind the agent and can cost a little
	// more than the agent's whole Receive; the agent's own share is then
	// below what this method resolves, not negative.
	agentSelf := max(recvAll-tibAll, 0)
	rep.set("agent.self_ns_per_pkt", agentSelf)
	rep.set("tib.mem_update_ns", perPkt(sh.tUpdate, sh.pkts))
	rep.set("tib.mem_evictflow_ns", perPkt(sh.tEvictFlow, sh.fins))
	rep.set("tib.add_ns_per_record", perPkt(sh.tAdd, sh.recs))
	rep.set("tib.evict_ns_per_record", perPkt(sh.tEvict, sh.recs))
	rep.set("tib.compact_ns_per_record", perPkt(sh.tCompact, sh.recs))
	rep.set("bench.ladder_samples", float64((w.nData+w.nFin)/burstPkts))

	// Layer shares of the median burst.
	lat := rep.Value("e2e.lat_p50_us")
	self := map[string]float64{"agent": agentSelf * burstPkts / 1e3, "tib": tibAll * burstPkts / 1e3}
	for _, layer := range layers {
		rep.set("share."+layer, self[layer]/lat)
	}
	rep.shareReport(fmt.Sprintf("layer self time and share of the median burst (%.1f us):", lat), self)
	idle := rep.Value("share.rpc") + rep.Value("share.wire") + rep.Value("share.controller")
	rep.target("rpc + wire + controller absent", idle, idle == 0)
}

func (w *ingestWorkload) close() {}

// clockCost measures one time.Now/time.Since pair in ns.
func clockCost() float64 {
	const n = 1 << 14
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / n
}

// shadowTIB is the standalone write-side TIB of the traced run: a
// tib.Memory and a tib.Store with the agent's configuration, fed the
// identical packet stream one stage at a time so each stage can be
// timed from outside.
type shadowTIB struct {
	mem   *tib.Memory
	store *tib.Store
	recs  int
	pkts  int
	fins  int

	evicted                                     int
	tUpdate, tEvictFlow, tAdd, tEvict, tCompact time.Duration
	pending                                     []types.Record
}

func newShadowTIB(c agent.Config) *shadowTIB {
	return &shadowTIB{
		mem: tib.NewMemory(0),
		store: tib.NewStoreConfig(tib.Config{
			SegmentSpan:    c.SegmentSpan,
			SegmentRecords: c.SegmentRecords,
			RetentionBytes: c.RetentionBytes,
			CompactBelow:   c.CompactBelow,
		}),
	}
}

func (s *shadowTIB) reset() {
	s.recs, s.pkts, s.fins = 0, 0, 0
	s.tUpdate, s.tEvictFlow, s.tAdd, s.tEvict, s.tCompact = 0, 0, 0, 0, 0
}

// feedOnly pushes one untimed burst of the workload's traffic through
// the real agent and the shadow alike (steady-state warm-up).
func (s *shadowTIB) feedOnly(w *ingestWorkload) {
	w.oneBurst(nil, 0)
	s.feed(w.fab.sim.Now(), w.burst, nil, 0, 0)
}

func (s *shadowTIB) feed(now types.Time, burst []pktRec, tr *tracer, op, parent int) {
	s.pending = s.pending[:0]
	t0 := time.Now()
	for i := range burst {
		p := &burst[i]
		s.mem.Update(now, p.flow, p.hdr, p.size, p.fin)
	}
	t1 := time.Now()
	fins := 0
	for i := range burst {
		p := &burst[i]
		if !p.fin {
			continue
		}
		fins++
		for _, e := range s.mem.EvictFlow(p.flow) {
			s.pending = append(s.pending, types.Record{
				Flow: e.Flow, Path: p.path, STime: e.STime, ETime: e.ETime, Bytes: e.Bytes, Pkts: e.Pkts,
			})
		}
	}
	t2 := time.Now()
	for i := range s.pending {
		s.store.Add(s.pending[i])
	}
	t3 := time.Now()
	for range s.pending {
		_, n := s.store.EvictOverBytes()
		s.evicted += n
	}
	t4 := time.Now()
	for range s.pending {
		s.store.MaybeCompact()
	}
	t5 := time.Now()
	s.pkts += len(burst)
	s.fins += fins
	s.recs += len(s.pending)
	s.tUpdate += t1.Sub(t0)
	s.tEvictFlow += t2.Sub(t1)
	s.tAdd += t3.Sub(t2)
	s.tEvict += t4.Sub(t3)
	s.tCompact += t5.Sub(t4)
	if tr != nil && op%ladderEvery == 0 {
		tr.add(op, parent, "tib.mem_update", t0, t1.Sub(t0))
		tr.add(op, parent, "tib.mem_evictflow", t1, t2.Sub(t1))
		tr.add(op, parent, "tib.add", t2, t3.Sub(t2))
		tr.add(op, parent, "tib.evict", t3, t4.Sub(t3))
		tr.add(op, parent, "tib.compact", t4, t5.Sub(t4))
	}
}
