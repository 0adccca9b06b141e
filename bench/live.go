package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/alarms"
	"pathdump/internal/cherrypick"
	"pathdump/internal/controller"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/types"
)

// live: reads beside writes on the same stores, plus the alarm path.
//
// Hosts 0-3 of a k=4 tree sit in one multi-agent daemon, wired the way
// cmd/pathdumpd wires them: one mutex around sim.Run, Receive and
// install, queries lock-free; the agents raise alarms to an in-process
// controller whose handler forwards each one asynchronously through
// rpc.AlarmClient to a controller daemon (rpc.ControllerServer, as
// cmd/pathdumpc mounts it), whose /alarms/stream the harness tails with
// rpc.StreamAlarms. An open-loop pump feeds pumpPkts packets every
// pumpTick of wall time, advancing the virtual clock by the same tick;
// an event-triggered conformance query is installed on all four agents
// and about one flow in violEvery takes a path through the switch the
// policy forbids. Meanwhile one closed-loop client asks what just
// happened: top-k over the last virtual second, then the records on one
// link over the same second.
const (
	pumpTick      = 5 * time.Millisecond
	pumpPkts      = 500
	liveOpen      = 500
	liveRetention = 4 * types.Second
	liveLast      = types.Second
	violEvery     = 118 // ~5.9k flows/s start, so ~50 violate per second
	liveWarm      = 260 // warm-up sessions beside the pump at its real pace
)

const probeReason types.Reason = "BENCH_PROBE"

type liveWorkload struct {
	cfg Config
	queryWorld
	id ident

	// simMu serialises the pump against installs, as pathdumpd's does.
	simMu   sync.Mutex
	virtNow atomic.Int64

	sink    *controller.Controller // in-process: where the agents raise
	central *controller.Controller // behind the controller daemon
	cdaemon *daemon
	ac      *rpc.AlarmClient
	ctx     context.Context
	cancel  context.CancelFunc
	fwd     sync.WaitGroup // asynchronous alarm forwards in flight
	tail    chan struct{}  // closed when the SSE tail has returned
	armed   bool           // the conformance monitor is installed

	avoid types.SwitchID
	slots []liveSlot
	// pick[a][r] lists route r's conforming and violating path indices.
	pick   [][]pathPick
	cursor int
	made   uint64
	digest uint64

	mu        sync.Mutex
	sentAt    map[types.FlowID]time.Time // violating flows: when their FIN entered Receive
	delivered map[types.FlowID]int       // SSE entries seen per flow
	alarmLat  []float64
	probes    chan time.Time // SSE arrival times of the ladder's probe alarms
	lag       []float64
	stats0    alarms.Stats
}

type liveSlot struct {
	agent int
	flow  types.FlowID
	hdr   cherrypick.Header
	left  int
	sent  int
	viol  bool
}

type pathPick struct{ ok, viol []int }

// lockedAgent is what the daemon serves: the agent itself — every
// optional rpc extension included — with install and uninstall
// serialised against the pump, which mutate the shared simulator's
// timer heap.
type lockedAgent struct {
	*agent.Agent
	mu *sync.Mutex
}

func (l lockedAgent) Install(q query.Query, period types.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Agent.Install(q, period)
}

func (l lockedAgent) Uninstall(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Agent.Uninstall(id)
}

func newLive(cfg Config) *liveWorkload {
	return &liveWorkload{
		cfg:       cfg,
		id:        newIdent(cfg.Seed),
		sentAt:    make(map[types.FlowID]time.Time),
		delivered: make(map[types.FlowID]int),
		probes:    make(chan time.Time, 1),
	}
}

func (w *liveWorkload) build() error {
	w.ctx, w.cancel = context.WithCancel(context.Background())
	fab, err := newFabric(4, firstHosts(4), func(f *fabric) agent.AlarmSink {
		w.sink = controller.New(f.topo, controller.Local{}, f.sim)
		return w.sink
	}, func(int) agent.Config { return agent.Config{Retention: liveRetention} })
	if err != nil {
		return err
	}
	w.fab = fab
	w.now = func() types.Time { return types.Time(w.virtNow.Load()) }
	w.avoid = fab.topo.Cores()[0]
	for a := range fab.agents {
		var ps []pathPick
		for _, rt := range fab.routes[a] {
			var p pathPick
			for i, path := range rt.paths {
				if path.Contains(w.avoid) {
					p.viol = append(p.viol, i)
				} else {
					p.ok = append(p.ok, i)
				}
			}
			ps = append(ps, p)
		}
		w.pick = append(w.pick, ps)
	}
	w.slots = make([]liveSlot, liveOpen)
	w.digest = fnvOffset
	for i := range w.slots {
		s := &w.slots[i]
		w.open(s)
		s.sent = int(mix(uint64(i)^0x77) % uint64(s.left-1))
		s.left -= s.sent
	}

	// The controller daemon and the tail come first, so that no alarm
	// can precede its subscriber.
	w.central = controller.New(fab.topo, &rpc.HTTPTransport{}, nil)
	w.cdaemon, err = serve((&rpc.ControllerServer{C: w.central, Obs: &rpc.ServerObs{Registry: obs.NewRegistry()}}).Handler())
	if err != nil {
		return err
	}
	if err := w.serveAgents(len(fab.agents), func(a *agent.Agent) rpc.Target { return lockedAgent{a, &w.simMu} }); err != nil {
		return err
	}
	w.tail = make(chan struct{})
	go func() {
		defer close(w.tail)
		rpc.StreamAlarms(w.ctx, w.client, w.cdaemon.url, alarms.Filter{}, false, w.onAlarm)
	}()
	for deadline := time.Now().Add(5 * time.Second); w.central.AlarmStats().Subscribers == 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("alarm stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	w.ac = &rpc.AlarmClient{URL: w.cdaemon.url, Client: w.client}
	w.sink.SetAlarmContext(w.ctx)
	w.sink.OnAlarm(func(a types.Alarm) {
		w.fwd.Add(1)
		go func() {
			defer w.fwd.Done()
			ctx, cancel := context.WithTimeout(w.ctx, rpc.DefaultAlarmTimeout)
			defer cancel()
			w.ac.RaiseAlarmContext(ctx, a)
		}()
	})

	// Fill to the retention bound at full speed, then install the
	// monitor: a violation that predates the install raises nothing.
	warm, sessions := int((liveRetention+liveRetention/4)/types.Time(pumpTick.Nanoseconds())), liveWarm
	if w.cfg.Small {
		warm, sessions = warm/8, variants
	}
	for i := 0; i < warm; i++ {
		w.pumpOnce()
	}
	ctx, cancel := context.WithTimeout(w.ctx, opTimeout)
	defer cancel()
	policy := query.Query{Op: query.OpConformance, Link: types.AnyLink, Avoid: []types.SwitchID{w.avoid}}
	if _, err := w.ctrl.InstallContext(ctx, w.hosts, policy, 0); err != nil {
		return err
	}
	w.armed = true

	link := fab.lastHop(0, 3)
	w.sessions = []session{{steps: []step{
		{name: "topk", q: query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink}, leader: -1, last: liveLast},
		{name: "records", q: query.Query{Op: query.OpRecords, Link: link}, leader: -1, last: liveLast},
	}}}
	w.validate = func(q query.Query, res *query.Result) error {
		switch q.Op {
		case query.OpTopK:
			if len(res.Top) == 0 {
				return fmt.Errorf("topk: empty answer beside live ingest")
			}
			if !sort.SliceIsSorted(res.Top, func(i, j int) bool { return res.Top[i].Bytes > res.Top[j].Bytes }) {
				return fmt.Errorf("topk: answer not in descending byte order")
			}
		case query.OpRecords:
			for i := range res.Records {
				if r := &res.Records[i]; !r.Overlaps(q.Range) || !r.Path.ContainsLink(q.Link) {
					return fmt.Errorf("records: %v does not match the predicate", r)
				}
			}
		}
		return nil
	}
	// Warm-up sessions beside a live pump.
	stop := w.startPump()
	err = w.warmUp(sessions)
	stop()
	if err != nil {
		return err
	}
	return w.drainAlarms()
}

// open starts a fresh flow in slot s; one flow in violEvery takes a
// path through the forbidden switch.
func (w *liveWorkload) open(s *liveSlot) {
	n := w.made
	w.made++
	a := int(n % uint64(len(w.fab.agents)))
	routes := w.fab.routes[a]
	ri := int(mix(n) % uint64(len(routes)))
	viol := n%violEvery == 0
	if viol {
		// Only routes that cross the core can violate.
		for len(w.pick[a][ri].viol) == 0 {
			ri = (ri + 1) % len(routes)
		}
	}
	choices := w.pick[a][ri].ok
	if viol {
		choices = w.pick[a][ri].viol
	}
	pi := choices[mix(n^0x4321)%uint64(len(choices))]
	*s = liveSlot{
		agent: a,
		flow:  w.id.flow(routes[ri].src, w.fab.agents[a].Host.IP, n),
		hdr:   routes[ri].hdrs[pi],
		left:  2 + int(mix(n^0x9876)%31),
		viol:  viol,
	}
	if n < 4096 {
		w.digest = fnv(w.digest, uint64(s.flow.SrcIP)<<32|uint64(s.flow.SrcPort)<<16|uint64(s.flow.DstPort))
		w.digest = fnv(w.digest, uint64(pi)<<8|uint64(s.left))
	}
}

// pumpOnce advances the virtual clock one tick and feeds pumpPkts
// packets, under the simulator mutex.
func (w *liveWorkload) pumpOnce() {
	w.simMu.Lock()
	defer w.simMu.Unlock()
	sim := w.fab.sim
	sim.Run(sim.Now() + types.Time(pumpTick.Nanoseconds()))
	w.virtNow.Store(int64(sim.Now()))
	var pkt netsim.Packet
	for i := 0; i < pumpPkts; i++ {
		s := &w.slots[w.cursor]
		if w.cursor++; w.cursor == len(w.slots) {
			w.cursor = 0
		}
		s.left--
		pkt = netsim.Packet{Flow: s.flow, Size: pktSize(s.sent), Fin: s.left == 0, Hdr: s.hdr}
		s.sent++
		if pkt.Fin && s.viol && w.armed {
			w.mu.Lock()
			w.sentAt[s.flow] = time.Now()
			w.mu.Unlock()
		}
		w.fab.agents[s.agent].Receive(&pkt)
		if pkt.Fin {
			w.open(s)
		}
	}
}

// startPump runs the open-loop pump on its own goroutine until the
// returned stop function is called: burst i is due at start + i ticks,
// is never sent early, and its lag is measured from when it was due.
func (w *liveWorkload) startPump() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * pumpTick)
			timer.Reset(time.Until(due))
			select {
			case <-quit:
				return
			case <-timer.C:
			}
			w.pumpOnce()
			w.lag = append(w.lag, us(time.Since(due)))
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// onAlarm is the SSE tail's callback.
func (w *liveWorkload) onAlarm(e alarms.Entry) error {
	now := time.Now()
	if e.Alarm.Reason == probeReason {
		select {
		case w.probes <- now:
		default:
		}
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.delivered[e.Alarm.Flow]++
	if t, ok := w.sentAt[e.Alarm.Flow]; ok && w.delivered[e.Alarm.Flow] == 1 {
		w.alarmLat = append(w.alarmLat, us(now.Sub(t)))
	}
	return nil
}

// drainAlarms waits until every violating flow whose FIN has been
// injected has reached the SSE tail (or two seconds have passed).
func (w *liveWorkload) drainAlarms() error {
	w.fwd.Wait()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		missing := 0
		for f := range w.sentAt {
			if w.delivered[f] == 0 {
				missing++
			}
		}
		w.mu.Unlock()
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d alarms never reached the SSE subscriber", missing)
		}
	}
}

func (w *liveWorkload) verify(rep *Report) {
	rep.Digest = w.digest
	// Sessions race live ingest, so they have no oracle signature; each
	// answer is validated against its own predicate instead, and the
	// alarm path has an exact oracle: one SSE entry per violating flow.
	rep.OracleDigest = fnv(fnvOffset, uint64(w.avoid))
}

func (w *liveWorkload) measure(window time.Duration, m *meter, tr *tracer) {
	w.mu.Lock()
	clear(w.sentAt)
	clear(w.delivered)
	w.alarmLat = w.alarmLat[:0]
	w.mu.Unlock()
	w.lag = make([]float64, 0, 1<<14)
	w.stats0 = w.central.AlarmStats()
	m.lat = make([]float64, 0, 1<<14)
	// The stores shed a whole segment span at a time, so their size is a
	// sawtooth in virtual time. Start every window at the same phase of
	// it, or heap_mb reads wherever the warm-up happened to end.
	for span := int64(liveRetention / 8); w.virtNow.Load()%span != 0; {
		w.pumpOnce()
	}
	m.begin()
	stop := w.startPump()
	for op := 0; time.Since(m.start) < window; op++ {
		if smp := w.runSession(0, m, tr, op); smp != nil {
			w.alarmLadder(smp, tr, op)
		}
	}
	stop()
	m.end()

	// The alarm oracle: exactly one SSE entry per violating flow.
	if err := w.drainAlarms(); err != nil {
		m.failf("alarm oracle: %v", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	m.attempted += len(w.sentAt)
	for f, n := range w.delivered {
		if _, ok := w.sentAt[f]; !ok {
			m.failf("alarm oracle: alarm for %v, which violated nothing", f)
		} else if n > 1 {
			m.failf("alarm oracle: %d SSE entries for %v", n, f)
		}
	}
}

// alarmLadder times the alarm path's layers in isolation with probe
// alarms: the POST to the controller daemon, Publish on a standalone
// pipeline, and Publish on the daemon's pipeline to the SSE callback.
func (w *liveWorkload) alarmLadder(smp *ladderSample, tr *tracer, op int) {
	probe := types.Alarm{Reason: probeReason, Flow: types.FlowID{SrcPort: uint16(op)}}
	ctx, cancel := context.WithTimeout(w.ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	err := w.ac.RaiseAlarmContext(ctx, probe)
	d := time.Since(t0)
	tr.add(op, 0, "rpc.alarm_post", t0, d)
	if err == nil {
		smp.sums["rpc.alarm_post_us"] = us(d)
		select { // let the probe leave the SSE tail before the next one
		case <-w.probes:
		case <-time.After(time.Second):
		}
	}

	pipe := alarms.New(alarms.Config{})
	sub := pipe.Subscribe(0)
	const n = 32
	t0 = time.Now()
	for i := 0; i < n; i++ {
		probe.Flow.DstPort = uint16(i)
		pipe.Publish(probe)
		<-sub.C()
	}
	d = time.Since(t0)
	sub.Close()
	tr.add(op, 0, "alarms.publish", t0, d)
	smp.sums["alarms.publish_ns"] = float64(d.Nanoseconds()) / n

	probe.Flow.DstPort = 0xffff
	t0 = time.Now()
	w.central.AlarmPipeline().Publish(probe)
	select {
	case at := <-w.probes:
		tr.add(op, 0, "rpc.sse_deliver", t0, at.Sub(t0))
		smp.sums["rpc.sse_deliver_us"] = us(at.Sub(t0))
	case <-time.After(time.Second):
	}
}

func (w *liveWorkload) finish(rep *Report, m *meter, tr *tracer) {
	w.finishQueries(rep, m)
	w.mu.Lock()
	lat := append([]float64(nil), w.alarmLat...)
	w.mu.Unlock()
	sort.Float64s(lat)
	sort.Float64s(w.lag)
	p50, _ := quantile(lat, 0.50)
	p99, _ := quantile(lat, 0.99)
	lag99, _ := quantile(w.lag, 0.99)
	rep.set("live.alarm_lat_p50_us", p50)
	rep.set("live.alarm_lat_p99_us", p99)
	rep.set("live.ingest_lag_p99_us", lag99)
	rep.set("live.alarms_delivered", float64(len(lat)))
	st := w.central.AlarmStats()
	rep.set("alarms.admitted", float64(st.Admitted-w.stats0.Admitted))
	rep.set("alarms.suppressed", float64(st.Suppressed-w.stats0.Suppressed))
	rep.set("alarms.stream_drops", float64(st.StreamDropped-w.stats0.StreamDropped))
	stored, records := uint64(0), 0
	for _, a := range w.fab.agents {
		stored += a.RecordsStored
		records += a.Store.Len()
	}
	if !w.cfg.Small && (records == 0 || stored == uint64(records)) {
		rep.fail("not at steady state: %d records stored, %d resident (retention never evicted)", stored, records)
	}
}

func (w *liveWorkload) close() {
	if w.cancel != nil {
		w.cancel()
	}
	if w.tail != nil {
		<-w.tail
	}
	w.fwd.Wait()
	if w.cdaemon != nil {
		w.cdaemon.close()
	}
	w.queryWorld.close()
}
