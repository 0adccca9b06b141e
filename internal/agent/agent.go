// Package agent implements the PathDump server stack (§3.2): the edge
// datapath that extracts trajectory information from packet headers and
// aggregates it in the trajectory memory, the trajectory-construction
// module (with its LRU trajectory cache), the TIB export path, the query
// executor backing the Table-1 host API, the active TCP performance
// monitor, and installed (periodic or event-triggered) queries.
package agent

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/tcp"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// AlarmSink consumes alarms raised by agents (the controller).
type AlarmSink interface {
	RaiseAlarm(a types.Alarm)
}

// Config parameterises an agent. Zero values select the noted defaults.
type Config struct {
	// CacheSize bounds the trajectory cache (default 4096 paths).
	CacheSize int
	// StoreShards stripes the TIB store's locks so concurrent ingest and
	// query scans do not serialise (default tib.DefaultShards; 1 yields
	// a single-lock store).
	StoreShards int
	// SegmentSpan seals a TIB segment once it covers this much time
	// (default: Retention/8 when Retention is set, otherwise seal by
	// record count only). Tighter segments prune harder on range queries
	// and evict at finer granularity.
	SegmentSpan types.Time
	// SegmentRecords seals a TIB segment at this many records
	// (default tib.DefaultSegmentRecords; negative = never seal by count).
	SegmentRecords int
	// Retention bounds the TIB: as records are exported, whole sealed
	// segments whose newest record is older than now−Retention are
	// evicted — the paper's fixed per-host storage budget (§5.3). 0 keeps
	// everything.
	Retention types.Time
	// RetentionBytes bounds the TIB by estimated resident size: once the
	// store exceeds the budget, the oldest sealed segments are evicted
	// until it fits — §5.3's fixed MB-per-host budget taken literally,
	// independent of traffic rate. 0 means no byte budget; both bounds
	// may be active at once.
	RetentionBytes int64
	// ColdDir, when set, enables the TIB's cold disk tier: sealed
	// segments older than ColdAfter are spilled to self-contained files
	// under this directory and demand-loaded if a query still needs
	// them. RAM then holds only the hot window while retention governs
	// how much total history (hot + cold) survives.
	ColdDir string
	// ColdAfter is the age at which a sealed segment moves to the cold
	// tier (default Retention/2 when Retention is set; with neither set
	// the cold tier stays off even if ColdDir is given).
	ColdAfter types.Time
	// CompactBelow enables background compaction: adjacent sealed
	// segments smaller than this many records are merged back toward the
	// seal target as exports churn the store (default 0 = off).
	CompactBelow int
}

func (c Config) withDefaults() Config {
	if c.SegmentSpan == 0 && c.Retention > 0 {
		c.SegmentSpan = c.Retention / 8
	}
	if c.ColdDir != "" && c.ColdAfter == 0 && c.Retention > 0 {
		c.ColdAfter = c.Retention / 2
	}
	return c
}

// storeConfig maps the agent knobs onto the TIB store's configuration.
func (c Config) storeConfig() tib.Config {
	return tib.Config{
		Shards:         c.StoreShards,
		SegmentSpan:    c.SegmentSpan,
		SegmentRecords: c.SegmentRecords,
		Retention:      c.Retention,
		RetentionBytes: c.RetentionBytes,
		ColdDir:        c.ColdDir,
		CompactBelow:   c.CompactBelow,
	}
}

// Installed is one query installed by the controller (§2.1): periodic when
// Period > 0, event-triggered (run as records are exported) otherwise.
type Installed struct {
	ID     int
	Query  query.Query
	Period types.Time

	// watermark is the newest global TIB arrival sequence this query has
	// already evaluated: each periodic run scans only records past it
	// (guarded by instMu). The first run covers everything already in the
	// store, so violations that predate the install are still reported —
	// once. A faulted run leaves it where it was.
	watermark uint64
	// runs/recordsScanned count periodic evaluations and the TIB records
	// they actually touched — the telemetry proving incremental runs stay
	// proportional to the delta, not the store — and faults the runs a
	// cold read fault cut short (guarded by instMu).
	runs           uint64
	recordsScanned uint64
	faults         uint64
}

// TriggerStats is one installed query's incremental-evaluation telemetry.
type TriggerStats struct {
	// Runs counts periodic evaluations that found a non-empty delta
	// (quiet periods return after one sequence comparison and are not
	// counted).
	Runs uint64
	// RecordsScanned totals the TIB records those runs visited: with
	// watermarks it grows with the arrival rate, not run count × TIB size.
	RecordsScanned uint64
	// Watermark is the newest arrival sequence already evaluated.
	Watermark uint64
	// Faults counts runs a cold read fault cut short: each left the
	// watermark where it was, so its window is evaluated again next
	// period.
	Faults uint64
}

// Agent is one host's PathDump instance.
type Agent struct {
	Host *topology.Host

	sim    *netsim.Sim
	topo   *topology.Topology
	scheme cherrypick.Scheme
	cfg    Config

	Mem   *tib.Memory
	Cache *tib.Cache
	Store *tib.Store

	stack *tcp.Stack
	sink  AlarmSink

	// instMu guards the installed-query registry: HTTP daemons serve
	// /install and /uninstall on concurrent handler goroutines, and the
	// controller fans installs out concurrently on non-serial transports.
	instMu    sync.Mutex
	installed map[int]*Installed
	// triggered is the event-triggered subset of installed: a
	// snapshot rebuilt at Install/Uninstall, never written in place.
	triggered []*Installed
	nextID    int
	sweeping  bool
	evicted   []tib.MemEntry // Receive's eviction buffer, reused FIN after FIN

	// Counters exposed for the overhead experiments (§5.3).
	PacketsSeen    uint64
	BytesSeen      uint64
	RecordsStored  uint64
	RecordsEvicted uint64
	InvalidTraj    uint64
	SpillErrors    uint64
}

// New builds an agent for host h and registers it as the host's packet
// receiver. stack may be nil for hosts without TCP endpoints; sink may be
// nil to discard alarms.
func New(sim *netsim.Sim, h *topology.Host, stack *tcp.Stack, sink AlarmSink, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	if cfg.ColdDir != "" {
		// Co-located agents may share one configured root (pathdumpd
		// -hosts): each store gets a per-host subdirectory so their
		// sequence-keyed cold file names cannot collide. If the tier's
		// directory cannot be created the tier is disabled — segments
		// then simply stay resident.
		cfg.ColdDir = filepath.Join(cfg.ColdDir, fmt.Sprintf("host-%d", uint32(h.ID)))
		if err := os.MkdirAll(cfg.ColdDir, 0o755); err != nil {
			cfg.ColdDir = ""
		}
	}
	a := &Agent{
		Host:      h,
		sim:       sim,
		topo:      sim.Topo,
		scheme:    sim.Scheme,
		cfg:       cfg,
		Mem:       tib.NewMemory(tib.DefaultIdleTimeout),
		Cache:     tib.NewCache(cfg.CacheSize),
		Store:     tib.NewStoreConfig(cfg.storeConfig()),
		stack:     stack,
		sink:      sink,
		installed: make(map[int]*Installed),
	}
	sim.SetReceiver(h.ID, a)
	return a
}

// Receive implements netsim.Receiver: the OVS-side datapath of Figure 2.
// It extracts the trajectory header, strips it from the packet before the
// upper stack sees it, updates the per-path flow record, and exports
// records on FIN.
func (a *Agent) Receive(pkt *netsim.Packet) {
	hdr := pkt.Hdr
	pkt.Hdr = cherrypick.Header{} // strip trajectory info for upper layers
	a.PacketsSeen++
	a.BytesSeen += uint64(pkt.Size)
	now := a.sim.Now()
	a.Mem.Update(now, pkt.Flow, hdr, pkt.Size, pkt.Fin)
	if pkt.Fin {
		a.evicted = a.Mem.AppendEvictFlow(a.evicted[:0], pkt.Flow)
		for _, e := range a.evicted {
			a.export(e)
		}
		if a.Mem.Len() == 0 {
			a.evicted = nil // idle: hold no buffer, as the memory holds no slab or index
		}
	}
	a.ensureSweep()
	if a.stack != nil {
		a.stack.Receive(pkt)
	}
}

// sweepPeriod is how often the idle sweep runs: every second, evicting
// per-path records idle for tib.DefaultIdleTimeout (§3.2's 5 s).
const sweepPeriod = types.Second

// ensureSweep keeps exactly one idle-eviction timer alive while the
// trajectory memory is non-empty (so a drained simulation terminates).
func (a *Agent) ensureSweep() {
	if a.sweeping || a.Mem.Len() == 0 {
		return
	}
	a.sweeping = true
	a.sim.After(sweepPeriod, a.sweep)
}

func (a *Agent) sweep() {
	for _, e := range a.Mem.EvictIdle(a.sim.Now()) {
		a.export(e)
	}
	if a.Mem.Len() > 0 {
		a.sim.After(sweepPeriod, a.sweep)
		return
	}
	a.sweeping = false
}

// construct resolves a header to an end-to-end path via the trajectory
// cache, falling back to a topology walk over the unpacked header.
func (a *Agent) construct(src types.IP, hdr cherrypick.Packed) (types.Path, error) {
	if p, ok := a.Cache.Get(src, hdr); ok {
		return p, nil
	}
	p, err := a.scheme.Reconstruct(src, a.Host.IP, hdr.Header())
	if err != nil {
		return nil, err
	}
	a.Cache.Put(src, hdr, p)
	return p, nil
}

// export turns one evicted per-path flow record into a TIB record. A
// header inconsistent with the ground-truth topology raises an
// INVALID_TRAJECTORY alarm (§2.4) instead.
func (a *Agent) export(e tib.MemEntry) {
	p, err := a.construct(e.Flow.SrcIP, e.Hdr)
	if err != nil {
		a.InvalidTraj++
		a.raise(types.Alarm{Flow: e.Flow, Reason: types.ReasonInvalidTraj})
		return
	}
	rec := types.Record{
		Flow: e.Flow, Path: p,
		STime: e.STime, ETime: e.ETime,
		Bytes: e.Bytes, Pkts: e.Pkts,
	}
	a.Store.Add(rec)
	a.RecordsStored++
	if a.cfg.Retention > 0 {
		// Bounded retention (§5.3): expired sealed segments go as new
		// records arrive. EvictBefore self-throttles — cutoffs that cannot
		// free a segment yet return without touching a lock — so this is
		// safe to call per export.
		_, n := a.Store.EvictBefore(a.sim.Now() - a.cfg.Retention)
		a.RecordsEvicted += uint64(n)
	}
	if a.cfg.RetentionBytes > 0 {
		// Byte-budget retention: under budget this is one atomic load, so
		// it too is safe per export.
		_, n := a.Store.EvictOverBytes()
		a.RecordsEvicted += uint64(n)
	}
	if a.cfg.ColdDir != "" && a.cfg.ColdAfter > 0 {
		// Cold tiering rides the export path like eviction does:
		// SpillBefore self-throttles (cutoffs that cannot move a segment
		// yet are one atomic load), and a disk fault must not stall
		// ingest — it is counted and the segments stay resident.
		if _, _, err := a.Store.SpillBefore(a.sim.Now() - a.cfg.ColdAfter); err != nil {
			a.SpillErrors++
		}
	}
	if a.cfg.CompactBelow > 0 {
		// Background compaction, same contract: MaybeCompact returns in
		// two atomic loads until enough segments have sealed to make a
		// pass worthwhile.
		a.Store.MaybeCompact()
	}
	// Event-triggered installed queries run as new records appear, outside
	// the lock (they may raise alarms); rec never leaves this frame.
	a.instMu.Lock()
	triggered := a.triggered
	a.instMu.Unlock()
	for _, inst := range triggered {
		a.runInstalled(inst, &rec)
	}
}

// retrigger rebuilds the event-triggered snapshot (instMu held).
func (a *Agent) retrigger() {
	a.triggered = nil
	for _, inst := range a.installed {
		if inst.Period == 0 {
			a.triggered = append(a.triggered, inst)
		}
	}
}

// raise stamps and forwards an alarm.
func (a *Agent) raise(al types.Alarm) {
	if a.sink == nil {
		return
	}
	al.Host = a.Host.ID
	al.At = a.sim.Now()
	a.sink.RaiseAlarm(al)
}

// ExecuteContext runs a query against this host's view (TIB plus live
// trajectory memory plus the TCP monitor) — the host side of the
// controller API. The evaluation loop polls ctx as it merges TIB shards
// and stops early, returning the context's error instead of a partial
// result. The HTTP servers call it with the request context, so a
// disconnected client or an expired controller deadline releases the
// host promptly.
func (a *Agent) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	v := a.view()
	defer v.release()
	return query.ExecuteContext(ctx, q, v)
}

// StreamRecords hands every record matching q's predicate to fn as the
// scan visits it, never materialising the reply — the rpc servers use it
// to stream records-op responses chunk by chunk. The scan polls ctx like
// ExecuteContext does; a caller that hung up gets the context's error and
// a truncated stream.
func (a *Agent) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v := a.view()
	defer v.release()
	v.ScanRecords(ctx, query.PredicateOf(q), fn)
	return ctx.Err()
}

// Install registers a query; period 0 means event-triggered (§2.1). The
// returned ID is used to uninstall. Only the ops an installed query can
// act on are accepted — conformance, which raises its violations, and
// poor_tcp, which raises its suffering flows; any other op would run and
// report nothing, so it is refused with ID 0 and no timer. The registry
// itself is concurrency-safe, but periodic installs register timers on
// the agent's simulator, so callers installing concurrently at agents
// that share one Sim must serialise — the rpc servers and the sim-backed
// Local transport (via SerialControl) both do.
func (a *Agent) Install(q query.Query, period types.Time) int {
	if q.Op != query.OpConformance && q.Op != query.OpPoorTCP {
		return 0
	}
	a.instMu.Lock()
	a.nextID++
	inst := &Installed{ID: a.nextID, Query: q, Period: period}
	a.installed[inst.ID] = inst
	a.retrigger()
	a.instMu.Unlock()
	if period > 0 {
		a.sim.After(period, func() { a.periodic(inst) })
	}
	return inst.ID
}

// Uninstall removes an installed query.
func (a *Agent) Uninstall(id int) error {
	a.instMu.Lock()
	defer a.instMu.Unlock()
	if _, ok := a.installed[id]; !ok {
		return fmt.Errorf("agent %v: no installed query %d", a.Host.ID, id)
	}
	delete(a.installed, id)
	a.retrigger()
	return nil
}

// InstalledQueries returns the currently installed query IDs.
func (a *Agent) InstalledQueries() []int {
	a.instMu.Lock()
	defer a.instMu.Unlock()
	out := make([]int, 0, len(a.installed))
	for id := range a.installed {
		out = append(out, id)
	}
	return out
}

// periodic runs one installed query and reschedules itself, until the
// query is uninstalled. IDs are never reused, so the registry still
// holding inst under its ID means it is live.
func (a *Agent) periodic(inst *Installed) {
	a.instMu.Lock()
	live := a.installed[inst.ID] == inst
	a.instMu.Unlock()
	if !live {
		return
	}
	a.runInstalled(inst, nil)
	a.sim.After(inst.Period, func() { a.periodic(inst) })
}

// runInstalled executes an installed query and converts its result into
// alarms. rec, when non-nil, is the just-exported record for
// event-triggered execution (the query is evaluated against it alone,
// which is how the paper's per-packet-arrival conformance check behaves).
// Periodic TIB-driven queries evaluate incrementally: each run scans only
// the records that arrived since the previous one (see runIncremental).
func (a *Agent) runInstalled(inst *Installed, rec *types.Record) {
	q := inst.Query
	switch q.Op {
	case query.OpPoorTCP:
		// The active monitoring module (§3.2): raise POOR_PERF per
		// suffering flow. The TCP monitor is inherently incremental —
		// PoorFlows advances its per-sender scan window on every call —
		// so no TIB watermark is involved.
		for _, f := range a.PoorTCPFlows(q.Threshold) {
			a.raise(types.Alarm{Flow: f, Reason: types.ReasonPoorPerf})
		}
	case query.OpConformance:
		if rec != nil {
			if query.Violates(q, rec) {
				a.raise(types.Alarm{Flow: rec.Flow, Reason: types.ReasonPathConformance, Paths: []types.Path{rec.Path}})
			}
			return
		}
		for _, v := range a.runIncremental(inst).Violations {
			a.raise(types.Alarm{Flow: v.Flow, Reason: types.ReasonPathConformance, Paths: []types.Path{v.Path}})
		}
	}
}

// runIncremental evaluates one periodic installed query over only the
// TIB records that arrived since its previous run: the query's predicate
// is pushed down with a (watermark, LastSeq] sequence window, so whole
// sealed segments below the watermark are skipped by one bound
// comparison and a quiet period costs almost nothing — instead of the
// previous full TIB rescan every period, which also re-alarmed every old
// violation forever. The upper bound is captured before evaluation, so a
// record arriving mid-scan is deferred (exactly once) to the next run.
// Records still in the trajectory memory are not consulted — they enter
// the window when exported, so nothing is reported twice and nothing is
// missed, only deferred until export. A cold read fault inside the
// window aborts the store scan: the run's result (what it found before
// the fault) is still raised, but the watermark stays, so the whole
// window is retried next period — a violation is reported at least
// once, never skipped — and the fault is counted.
func (a *Agent) runIncremental(inst *Installed) query.Result {
	a.instMu.Lock()
	since := inst.watermark
	a.instMu.Unlock()
	until := a.Store.LastSeq()
	if until <= since {
		return query.Result{Op: inst.Query.Op} // nothing new since the last run
	}
	var scanned uint64
	var fault error
	view := query.ScanView{
		Scan: func(_ context.Context, p query.Predicate, fn func(*types.Record)) {
			err := a.Store.ScanSince(p.MinSeq, p.MaxSeq, p.Flow, p.Link, p.Range, func(r *types.Record) bool {
				scanned++
				fn(r)
				return true
			})
			if fault == nil {
				fault = err
			}
		},
		Window: query.Predicate{MinSeq: since, MaxSeq: until},
		Poor:   a.PoorTCPFlows,
	}
	res, _ := query.ExecuteContext(context.Background(), inst.Query, view) // a ScanView serves every op
	a.instMu.Lock()
	if cur, ok := a.installed[inst.ID]; ok && cur == inst {
		if fault == nil {
			inst.watermark = until
		} else {
			inst.faults++
		}
		inst.runs++
		inst.recordsScanned += scanned
	}
	a.instMu.Unlock()
	return res
}

// TriggerStats reports one installed query's incremental-evaluation
// telemetry; ok is false when no such installation exists.
func (a *Agent) TriggerStats(id int) (TriggerStats, bool) {
	a.instMu.Lock()
	defer a.instMu.Unlock()
	inst, ok := a.installed[id]
	if !ok {
		return TriggerStats{}, false
	}
	return inst.stats(), true
}

// stats is inst's telemetry; the caller holds instMu.
func (inst *Installed) stats() TriggerStats {
	return TriggerStats{Runs: inst.runs, RecordsScanned: inst.recordsScanned, Watermark: inst.watermark, Faults: inst.faults}
}

// TriggerTotals aggregates installed-query telemetry across every
// installation: the install count, and in total the cumulative runs,
// records scanned and faults, with the lowest watermark (the
// furthest-behind trigger; 0 when none are installed). The metrics plane
// scrapes it.
func (a *Agent) TriggerTotals() (installed int, total TriggerStats) {
	a.instMu.Lock()
	defer a.instMu.Unlock()
	for _, inst := range a.installed {
		st := inst.stats()
		if installed == 0 || st.Watermark < total.Watermark {
			total.Watermark = st.Watermark
		}
		installed++
		total.Runs += st.Runs
		total.RecordsScanned += st.RecordsScanned
		total.Faults += st.Faults
	}
	return installed, total
}

// TIBSize reports the number of queryable records (TIB plus trajectory
// memory) — the cost-model input for response-time accounting.
func (a *Agent) TIBSize() int { return a.Store.Len() + a.Mem.Len() }

// SegmentStats reports the TIB's cumulative scan telemetry (segments
// walked versus pruned); controller.Evaluate attributes per-query deltas.
func (a *Agent) SegmentStats() (scanned, pruned uint64) { return a.Store.SegmentStats() }

// ColdLoads reports the TIB's cumulative cold-segment demand loads;
// controller.Evaluate attributes per-query deltas.
func (a *Agent) ColdLoads() uint64 { return a.Store.ColdLoads() }

// WriteSnapshot streams the host's whole TIB in the block-framed
// snapshot format — the /snapshot endpoint and offline analysis
// (pathdumpd -tib, through tib.ReadSnapshot) both read it. The capture is
// consistent and momentary; ingest continues while the snapshot streams.
func (a *Agent) WriteSnapshot(w io.Writer) error { return a.Store.Snapshot(w) }

// PoorTCPFlows implements getPoorTCPFlows over the host's TCP monitor.
func (a *Agent) PoorTCPFlows(threshold int) []types.FlowID {
	if a.stack == nil {
		return nil
	}
	if threshold <= 0 {
		threshold = 3
	}
	return a.stack.PoorFlows(threshold)
}
