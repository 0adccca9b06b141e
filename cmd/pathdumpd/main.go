// Command pathdumpd runs PathDump host agents as an HTTP daemon — the
// real-deployment analogue of the paper's Flask server stack. It serves
// the host API (query/install/uninstall) for the TIBs of one or more
// hosts, loaded from a snapshot or populated by an embedded demo
// workload. Every mode serves the same endpoints: a single host is a
// multi-host daemon of one.
//
//	# serve host 12 of a 4-ary fat-tree with demo traffic, on :8412
//	pathdumpd -host 12 -listen :8412 -demo
//
//	# serve several co-located hosts from one daemon, with the batched
//	# /batchquery endpoint the controller's fan-out collapses into
//	pathdumpd -hosts 0,1,2,3 -listen :8400 -demo
//
//	# serve a TIB snapshot produced elsewhere
//	pathdumpd -host 3 -listen :8403 -tib host3.tib
//
// Query it with pathdumpctl or plain curl:
//
//	curl -s localhost:8412/query -d '{"query":{"op":"topk","k":5}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pathdump"
	"pathdump/internal/agent"
	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/tib"
	"pathdump/internal/types"
	"pathdump/internal/workload"
)

// drainTimeout bounds graceful shutdown: in-flight requests get this long
// to finish after SIGINT/SIGTERM before the daemon exits anyway.
const drainTimeout = 5 * time.Second

func main() {
	var (
		listen   = flag.String("listen", ":8400", "HTTP listen address")
		hostID   = flag.Uint("host", 0, "host ID within the topology")
		hostIDs  = flag.String("hosts", "", "comma-separated host IDs to serve from one multi-agent daemon (overrides -host)")
		arity    = flag.Int("k", 4, "fat-tree arity of the ground-truth topology")
		parallel = flag.Int("parallel", 0, "max concurrent per-host executions of a /batchquery (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "per-request deadline (0 = none): the request context is cancelled at the deadline, aborting TIB scans and batch fan-outs mid-flight")
		tibPath  = flag.String("tib", "", "TIB snapshot to load (a full Store.Snapshot stream; single-host mode only)")
		segSpan  = flag.Duration("segment-span", 0, "seal a TIB segment once it covers this much virtual time (0 = seal by record count; default retention/8 when -retention is set)")
		retain   = flag.Duration("retention", 0, "TIB retention: whole sealed segments older than this (virtual time) are evicted as records arrive — the paper's fixed per-host storage budget (0 = keep everything)")
		retainB  = flag.Int64("retention-bytes", 0, "TIB byte budget: once the store's estimated footprint exceeds this, the oldest sealed segments are evicted until it fits — §5.3's fixed MB-per-host budget (0 = no byte budget)")
		coldDir  = flag.String("cold-dir", "", "cold-tier directory: sealed TIB segments older than -cold-after spill to self-contained files here and are demand-loaded if a query still needs them (empty = cold tier off)")
		coldAge  = flag.Duration("cold-after", 0, "age (virtual time) at which a sealed segment moves to the cold tier (default retention/2 when -retention is set; requires -cold-dir)")
		compactB = flag.Int("compact-below", 0, "background compaction: adjacent sealed segments smaller than this many records are merged back toward the seal size as records arrive (0 = off)")
		demo     = flag.Bool("demo", false, "populate the TIB with a simulated demo workload")
		alarmURL = flag.String("controller", "", "controller URL for alarms (optional)")
		trigger  = flag.Duration("trigger-every", 200*time.Millisecond, "how often the daemon advances its virtual clock so installed (periodic) queries actually fire while serving; 0 freezes time after startup (installed queries then never run)")
		slowHost = flag.Int("slow-host", -1, "fault injection: queries at this served host stall for -slow-delay before answering (e2e straggler testing)")
		slowDly  = flag.Duration("slow-delay", 30*time.Second, "how long the injected-slow host stalls (the stall honours the request context)")
		slowOnce = flag.Bool("slow-first-only", false, "only the first query at -slow-host stalls; later ones (e.g. a hedged retry) answer at full speed")
		impair   = flag.String("impair", "", "fault injection: semicolon-separated link impairments applied before the demo workload runs, each 'A-B:knob[,knob...]' with directed switch IDs and tc-style knobs loss=P (drop probability), rate=BPS (throttle; 0 kills the link's bandwidth), delay=DUR (added one-way latency), down (administratively down) — e.g. '0-8:loss=1;0-9:loss=1'")
		poorFlow = flag.Bool("inject-poor-flow", false, "fault injection: register one wedged TCP flow at the lowest served host so an installed poor_tcp monitor deterministically raises POOR_PERF every period (e2e alarm-path testing)")
		maxBody  = flag.Int64("max-body", 0, "per-request body cap in bytes; oversized requests answer 413 (0 = the 16 MiB default)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints stay off by default)")
		opsEvery = flag.Duration("ops-log-every", 0, "periodically log an operational summary — served TIB records plus alarm forwarding health (forwarded, failed, dropped) — at this interval (0 = off)")
	)
	flag.Parse()

	// The metrics registry backs GET /metrics on every serving mode; the
	// agent and rpc planes register below as they are wired.
	reg := obs.NewRegistry()
	srvObs := &rpc.ServerObs{Registry: reg, EnablePprof: *pprofOn}

	c, err := pathdump.NewFatTree(*arity, pathdump.Config{Agent: pathdump.AgentConfig{
		SegmentSpan:    pathdump.Time(segSpan.Nanoseconds()),
		Retention:      pathdump.Time(retain.Nanoseconds()),
		RetentionBytes: *retainB,
		ColdDir:        *coldDir,
		ColdAfter:      pathdump.Time(coldAge.Nanoseconds()),
		CompactBelow:   *compactB,
	}})
	if err != nil {
		log.Fatalf("pathdumpd: %v", err)
	}

	served := make(map[types.HostID]*agent.Agent)
	if *hostIDs != "" {
		for _, part := range strings.Split(*hostIDs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("pathdumpd: bad -hosts entry %q: %v", part, err)
			}
			a, ok := c.Agents[pathdump.HostID(n)]
			if !ok {
				log.Fatalf("pathdumpd: host %d not in a %d-ary fat tree (%d hosts)",
					n, *arity, len(c.Agents))
			}
			served[pathdump.HostID(n)] = a
		}
	} else {
		a, ok := c.Agents[pathdump.HostID(*hostID)]
		if !ok {
			log.Fatalf("pathdumpd: host %d not in a %d-ary fat tree (%d hosts)",
				*hostID, *arity, len(c.Agents))
		}
		served[pathdump.HostID(*hostID)] = a
	}

	if *impair != "" {
		n, err := applyImpairments(c, *impair)
		if err != nil {
			log.Fatalf("pathdumpd: %v", err)
		}
		log.Printf("pathdumpd: %d link impairments injected (%s)", n, *impair)
	}

	// The daemon's lifetime context: SIGINT/SIGTERM cancels it, which
	// drains the HTTP server and cuts off in-flight alarm forwarding. The
	// first signal starts the graceful drain; restoring the default
	// disposition right then lets a second signal force-kill a hung one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// Alarm-forwarding telemetry: outcome counters plus the client's own
	// drop counter, surfaced on /metrics and in the periodic ops log so
	// alarm loss is visible instead of silent.
	var (
		alarmsForwarded atomic.Uint64
		alarmsFailed    atomic.Uint64
		alarmsDropped   = func() uint64 { return 0 }
	)
	if *alarmURL != "" {
		// Alarms raised at the in-process controller (the agents' sink) —
		// including ones fired while the demo workload below runs — are
		// forwarded to the remote controller under the daemon's lifetime
		// context plus a per-POST timeout: a wedged controller costs a
		// bounded goroutine, never a leaked one.
		ac := &rpc.AlarmClient{URL: strings.TrimSuffix(*alarmURL, "/")}
		alarmsDropped = ac.Dropped
		reg.GaugeFunc("pathdump_alarm_forward_dropped", "Alarms the forwarding client abandoned (cumulative).",
			func() float64 { return float64(ac.Dropped()) })
		fwdOK := reg.Counter("pathdump_alarm_forwards_total", "Alarm forwards to the remote controller, by outcome.", obs.L("result", "ok"))
		fwdErr := reg.Counter("pathdump_alarm_forwards_total", "Alarm forwards to the remote controller, by outcome.", obs.L("result", "error"))
		c.Ctrl.SetAlarmContext(ctx)
		c.OnAlarm(func(a pathdump.Alarm) {
			go func() {
				fctx, cancel := context.WithTimeout(ctx, rpc.DefaultAlarmTimeout)
				defer cancel()
				if err := ac.RaiseAlarmContext(fctx, a); err != nil {
					alarmsFailed.Add(1)
					fwdErr.Inc()
					if ctx.Err() == nil {
						log.Printf("pathdumpd: alarm forward failed (%d dropped so far): %v", ac.Dropped(), err)
					}
					return
				}
				alarmsForwarded.Add(1)
				fwdOK.Inc()
			}()
		})
		log.Printf("pathdumpd: forwarding alarms to %s", *alarmURL)
	}

	// Every mode ends here: one server type, keyed by the host IDs the
	// daemon already knows.
	serveTargets := func(targets map[types.HostID]rpc.Target) {
		h := newHandler(&rpc.MultiAgentServer{
			Targets: targets, Parallelism: *parallel,
			MaxBodyBytes: *maxBody, Obs: srvObs,
		}, *slowHost, *slowDly, *slowOnce)
		log.Printf("pathdumpd: %d hosts serving on %s", len(targets), *listen)
		fmt.Println("endpoints: POST /query /batchquery /install /uninstall, GET /stats /snapshot?host=N /healthz /metrics")
		if err := serve(ctx, *listen, h, *timeout); err != nil {
			log.Fatal(err)
		}
	}

	switch {
	case *tibPath != "":
		if len(served) != 1 || *hostIDs != "" {
			log.Fatal("pathdumpd: -tib requires single-host mode (-host)")
		}
		// A snapshot has no live agent behind it: serve it as a bare
		// store so ops needing agent runtime (poor_tcp) answer 501
		// instead of a silently empty result.
		f, err := os.Open(*tibPath)
		if err != nil {
			log.Fatalf("pathdumpd: %v", err)
		}
		store, err := tib.ReadSnapshot(f)
		if err != nil {
			log.Fatalf("pathdumpd: loading %s: %v", *tibPath, err)
		}
		f.Close()
		srvObs.Health = func() rpc.HealthStatus {
			return rpc.HealthStatus{Status: "ok", Hosts: 1, Records: store.Len(), Snapshot: "restored"}
		}
		log.Printf("pathdumpd: snapshot %s loaded, %d TIB records in %d segments",
			*tibPath, store.Len(), store.Segments())
		serveTargets(map[types.HostID]rpc.Target{types.HostID(*hostID): rpc.SnapshotTarget{Store: store}})
		return
	case *demo:
		hosts := c.HostIDs()
		gen, err := workload.NewGenerator(c.Sim, c.Stacks, workload.GenConfig{
			Sources: hosts, Dests: hosts,
			Load: 0.3, LinkBps: 100e6,
			Dist:  workload.WebSearch(),
			Until: 20 * pathdump.Second,
		})
		if err != nil {
			log.Fatalf("pathdumpd: %v", err)
		}
		gen.Start()
		c.Run(30 * pathdump.Second)
		records := 0
		for _, a := range served {
			records += a.Store.Len()
		}
		log.Printf("pathdumpd: demo workload ran %d flows; served TIBs hold %d records",
			gen.Started, records)
	}

	if *poorFlow {
		// One wedged flow at the lowest served host: its sender never
		// progresses and sits at a high consecutive-retransmission count,
		// so an installed TCP monitor reports it on every periodic run —
		// the deterministic driver for the e2e alarm-dedup scenario.
		low := types.HostID(0)
		first := true
		for id := range served {
			if first || id < low {
				low, first = id, false
			}
		}
		f := types.FlowID{
			SrcIP: c.HostIP(low), DstIP: c.HostIP(low) + 1,
			SrcPort: 55555, DstPort: 80, Proto: types.ProtoTCP,
		}
		c.Stacks[low].InjectPoorFlow(f, 100)
		log.Printf("pathdumpd: host %v injected poor flow %v", low, f)
	}

	// The trigger pump maps wall time onto the simulator's virtual clock
	// while the daemon serves, so installed (periodic) queries — the
	// continuous-monitoring plane — actually fire on a live daemon
	// instead of being frozen at startup time. The pump and the
	// install/uninstall handlers share simMu: both mutate the simulator's
	// timer heap. Query execution needs no lock — the TIB store and
	// trajectory memory are safe for concurrent readers while the pump's
	// events append.
	var simMu sync.Mutex

	// Agent-plane metrics for every served host. The agent's plain
	// counters are written on the sim goroutine, so scrape-time reads go
	// through simMu — the same lock the trigger pump steps under.
	for _, a := range served {
		a.RegisterMetrics(reg, &simMu)
	}

	if *opsEvery > 0 {
		go func() {
			tick := time.NewTicker(*opsEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					records := 0
					for _, a := range served {
						records += a.Store.Len()
					}
					log.Printf("pathdumpd: ops: %d hosts, %d TIB records; alarms forwarded=%d failed=%d dropped=%d",
						len(served), records, alarmsForwarded.Load(), alarmsFailed.Load(), alarmsDropped())
				}
			}
		}()
	}

	if *trigger > 0 {
		go func() {
			tick := time.NewTicker(*trigger)
			defer tick.Stop()
			last := time.Now()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-tick.C:
					d := pathdump.Time(now.Sub(last).Nanoseconds())
					last = now
					simMu.Lock()
					c.Run(c.Now() + d)
					simMu.Unlock()
				}
			}
		}()
	}

	targets := make(map[types.HostID]rpc.Target, len(served))
	for id, a := range served {
		targets[id] = lockedTarget{Target: a, mu: &simMu}
	}
	serveTargets(targets)
}

// applyImpairments parses and installs a -impair spec: semicolon-
// separated clauses of the form "A-B:loss=0.5,rate=1e6,delay=5ms,down"
// naming a directed switch pair and its netsim.Impairment knobs. A
// rate of 0 maps to the zero-bandwidth sentinel (RateBps < 0): packets
// drop but the fabric stays live — "rate 0bit" in tc terms.
func applyImpairments(c *pathdump.Cluster, spec string) (int, error) {
	n := 0
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		head, opts, ok := strings.Cut(clause, ":")
		if !ok {
			return n, fmt.Errorf("impairment %q: want A-B:knob[,knob...]", clause)
		}
		as, bs, ok := strings.Cut(head, "-")
		if !ok {
			return n, fmt.Errorf("impairment %q: link must be A-B", clause)
		}
		a, errA := strconv.Atoi(strings.TrimSpace(as))
		b, errB := strconv.Atoi(strings.TrimSpace(bs))
		if errA != nil || errB != nil {
			return n, fmt.Errorf("impairment %q: switch IDs must be integers", clause)
		}
		var im netsim.Impairment
		for _, opt := range strings.Split(opts, ",") {
			key, val, _ := strings.Cut(strings.TrimSpace(opt), "=")
			var err error
			switch key {
			case "loss":
				if im.Loss, err = strconv.ParseFloat(val, 64); err != nil || im.Loss < 0 || im.Loss > 1 {
					return n, fmt.Errorf("impairment %q: loss must be a probability in [0,1]", clause)
				}
			case "rate":
				bps, err := strconv.ParseFloat(val, 64)
				if err != nil || bps < 0 {
					return n, fmt.Errorf("impairment %q: rate must be a non-negative bps value", clause)
				}
				if bps == 0 {
					im.RateBps = -1
				} else {
					im.RateBps = int64(bps)
				}
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return n, fmt.Errorf("impairment %q: delay must be a non-negative duration", clause)
				}
				im.Delay = pathdump.Time(d.Nanoseconds())
			case "down":
				im.Down = true
			default:
				return n, fmt.Errorf("impairment %q: unknown knob %q", clause, key)
			}
		}
		c.SetImpairment(pathdump.SwitchID(a), pathdump.SwitchID(b), im)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("impairment spec %q: no clauses", spec)
	}
	return n, nil
}

// newHandler builds the daemon's one serving surface from srv, however
// many targets it holds, after wrapping the injected-slow host (none when
// slowHost < 0). That wrapper goes outermost: an injected stall must hold
// the straggling request's goroutine, never the sim lock — otherwise one
// wedged query would freeze the trigger pump and every install for the
// stall's duration.
func newHandler(srv *rpc.MultiAgentServer, slowHost int, slowDelay time.Duration, slowOnce bool) http.Handler {
	if id := types.HostID(slowHost); slowHost >= 0 && srv.Targets[id] != nil {
		log.Printf("pathdumpd: host %v injected slow (%v, first-only=%v)", id, slowDelay, slowOnce)
		srv.Targets[id] = &slowTarget{Target: srv.Targets[id], delay: slowDelay, once: slowOnce}
	}
	return srv.Handler()
}

// lockedTarget serialises against the trigger pump's sim.Run everything
// that touches unsynchronised shared state: the control-plane mutations
// (install/uninstall register and cancel timers on the shared
// simulator) and poor_tcp queries (the TCP stack has no lock of its
// own, and PoorFlows advances per-sender scan state that the pump's
// installed monitor also advances). Everything else — TIB and
// trajectory-memory scans, streamed ones included — is the embedded
// target's: those structures are safe for concurrent readers while the
// pump's events append.
type lockedTarget struct {
	rpc.Target
	mu *sync.Mutex
}

func (l lockedTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	if q.Op == query.OpPoorTCP {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	return l.Target.ExecuteContext(ctx, q)
}
func (l lockedTarget) Install(q query.Query, period types.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Target.Install(q, period)
}
func (l lockedTarget) Uninstall(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Target.Uninstall(id)
}

// slowTarget injects a stall into one served host's query paths — the
// materialised and the streamed one — so e2e runs can exercise hedging
// and partial results against real binaries. The stall honours the
// request context: a hung-up or deadline-expired caller releases the
// handler immediately.
type slowTarget struct {
	rpc.Target
	delay time.Duration
	once  bool
	hit   atomic.Bool
}

func (s *slowTarget) stall(ctx context.Context) error {
	if s.once && s.hit.Swap(true) {
		return nil
	}
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *slowTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	if err := s.stall(ctx); err != nil {
		return query.Result{}, err
	}
	return s.Target.ExecuteContext(ctx, q)
}

func (s *slowTarget) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	if err := s.stall(ctx); err != nil {
		return err
	}
	return s.Target.StreamRecords(ctx, q, fn)
}

// serve runs the daemon with per-request deadlines and a graceful
// shutdown path: reqTimeout > 0 cancels each request's context at the
// deadline (aborting agent-side TIB scans mid-merge and answering 503),
// and cancelling ctx (SIGINT/SIGTERM) drains in-flight requests for up
// to drainTimeout before the listener closes.
func serve(ctx context.Context, listen string, h http.Handler, reqTimeout time.Duration) error {
	if reqTimeout > 0 {
		h = http.TimeoutHandler(h, reqTimeout, "pathdumpd: request deadline exceeded")
	}
	srv := &http.Server{Addr: listen, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Printf("pathdumpd: shutting down, draining in-flight requests for up to %v", drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		log.Print("pathdumpd: drained cleanly")
		return nil
	}
}
