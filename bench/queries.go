package bench

import (
	"fmt"
	"os"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/types"
)

// variants is how many session variants a query workload cycles through.
const variants = 7 // coprime with ladderEvery, so the ladder samples every variant

// warmUp runs n warm-up sessions: enough that connections are pooled,
// buffers sized and scan pools primed — and, with the fill, that set-up is
// seconds of work on every workload: a sub-second set-up does not repeat
// (PR 12's 0.40 s against 0.44 s). The smoke test runs one lap of the
// variants.
func (w *queryWorld) warmUp(n int) error {
	var scratch meter
	for op := 0; op < n; op++ {
		w.runSession(op, &scratch, nil, op)
	}
	if scratch.failed > 0 {
		return fmt.Errorf("warm-up: %s", scratch.errs[0])
	}
	return nil
}

// queryWorkload is a closed loop of debugging sessions from one client
// against static TIBs: query-fanout and query-scan differ only in how
// the world is shaped and what a session asks.
type queryWorkload struct {
	cfg Config
	queryWorld
	digest uint64
	warm   int // warm-up sessions
	shape  func(w *queryWorkload) error
	// targets checks the traced run's layer shares against the
	// workload's discrimination targets.
	targets func(rep *Report)
}

func (w *queryWorkload) build() error {
	if err := w.shape(w); err != nil {
		return err
	}
	return w.warmUp(w.warm)
}

func (w *queryWorkload) verify(rep *Report) {
	rep.Digest = w.digest
	w.prepare(rep)
}

func (w *queryWorkload) measure(window time.Duration, m *meter, tr *tracer) {
	w.closedLoop(window, m, tr)
}

func (w *queryWorkload) finish(rep *Report, m *meter, tr *tracer) {
	w.finishQueries(rep, m)
	if tr != nil {
		w.targets(rep)
	}
}

// lastHop is the link into the destination ToR on the first path of an
// agent's r-th route: every flow from that source to this rack over
// that aggregation switch crosses it.
func (f *fabric) lastHop(a, r int) types.LinkID {
	p := f.routes[a][r%len(f.routes[a])].paths[0]
	return types.LinkID{A: p[len(p)-2], B: p[len(p)-1]}
}

// query-fanout: 128 agents (k=8) behind 8 multi-agent daemons of 16
// hosts, each TIB holding only a handful of records, so a session's
// cost is request encoding, HTTP round trips, batch collapse,
// scheduling and a 128-way merge — not scanning. A session is top-k
// through a [4,4,8] aggregation tree, then the flows on one hot link,
// then the byte count of one of the top flows, both direct.
func newFanout(cfg Config) *queryWorkload {
	w := &queryWorkload{cfg: cfg, warm: 260}
	k, perDaemon := 8, 16
	plan := fillPlan{perHost: 4, flows: 2, steps: 4, stepDur: 10 * types.Millisecond}
	if cfg.Small {
		k, perDaemon, w.warm = 4, 4, variants
		plan.perHost, plan.flows = 64, 24
	}
	w.shape = func(w *queryWorkload) error {
		fab, err := newFabric(k, firstHosts(k*k*k/4), nil, func(int) agent.Config { return agent.Config{} })
		if err != nil {
			return err
		}
		w.fab = fab
		w.truth, w.digest = fab.fill(plan, newIdent(cfg.Seed))
		for v := 0; v < variants; v++ {
			// Remote routes only: the first route is the agent's own
			// rack, whose one-switch paths cross no link.
			link := fab.lastHop(v*len(fab.agents)/variants, 1+v%(srcsPerAgent-1))
			w.sessions = append(w.sessions, session{steps: []step{
				{name: "topk", q: query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink}, tree: []int{4, 4, 8}, leader: -1},
				{name: "flows", q: query.Query{Op: query.OpFlows, Link: link}, leader: -1},
				{name: "count", q: query.Query{Op: query.OpCount, Link: types.AnyLink}, leader: v},
			}})
		}
		return w.serveAgents(perDaemon, func(a *agent.Agent) rpc.Target { return a })
	}
	w.targets = func(rep *Report) {
		got := rep.Value("share.rpc") + rep.Value("share.controller")
		rep.target("rpc + controller self >= 60 %", got, got >= 0.60)
		sum := rep.Value("share.sum")
		rep.target("layer self times sum to latency within 15 %", sum, sum >= 0.85 && sum <= 1.15)
	}
	return w
}

// query-scan: 4 agents, each behind its own single-host daemon
// (pathdumpd's default mode, the one that streams record replies), each
// TIB big, cut into dozens of sealed segments per shard by SegmentSpan,
// its oldest third spilled to the cold tier. A session streams the
// records on one link over the newest half of time, ranks flows over
// the newest tenth (segment pruning plus a full scan of the survivors),
// and asks for the paths of one old flow (bloom-pruned; thaws at most
// one cold segment). Four requests per query: the fan-out machinery
// idles while scan, codec and merge work.
func newScan(cfg Config) *queryWorkload {
	w := &queryWorkload{cfg: cfg, warm: 120}
	plan := fillPlan{perHost: 20000, flows: 5000, steps: 256, stepDur: 10 * types.Millisecond}
	buckets := types.Time(32) // sealed segments per shard, by SegmentSpan
	if cfg.Small {
		plan = fillPlan{perHost: 1200, flows: 300, steps: 64, stepDur: 10 * types.Millisecond}
		buckets, w.warm = 8, variants
	}
	w.shape = func(w *queryWorkload) error {
		dir, err := os.MkdirTemp(cfg.TmpDir, "pathdumpbench-cold-")
		if err != nil {
			return err
		}
		w.coldDir = dir
		span := plan.span()
		fab, err := newFabric(4, firstHosts(4), nil, func(int) agent.Config {
			return agent.Config{
				StoreShards:    4,
				SegmentSpan:    span / buckets,
				SegmentRecords: 1024,
				ColdDir:        dir,
				ColdAfter:      span * 2 / 3,
			}
		})
		if err != nil {
			return err
		}
		w.fab = fab
		w.truth, w.digest = fab.fill(plan, newIdent(cfg.Seed))
		newest := func(share types.Time) types.TimeRange {
			return types.Since(span - span*share/100)
		}
		for v := 0; v < variants; v++ {
			// One-shot flows are every 4th record; the v-th of them at
			// agent v%4 lies in the oldest few steps, long since cold.
			old := w.truth[v%len(fab.agents)][3+4*v].Flow
			// Even variants name one concrete link (the link index
			// answers), odd ones every link into the rack (a filtered
			// scan answers).
			link := fab.lastHop(v%len(fab.agents), 1+v%(srcsPerAgent-1))
			if v%2 == 1 {
				link.A = types.WildcardSwitch
			}
			w.sessions = append(w.sessions, session{steps: []step{
				{name: "records", q: query.Query{Op: query.OpRecords, Link: link, Range: newest(50)}, leader: -1},
				{name: "topk", q: query.Query{Op: query.OpTopK, K: 100, Link: types.AnyLink, Range: newest(10)}, leader: -1},
				{name: "paths", q: query.Query{Op: query.OpPaths, Flow: old, Link: types.AnyLink}, leader: -1},
			}})
		}
		return w.serveAgents(1, func(a *agent.Agent) rpc.Target { return a })
	}
	w.targets = func(rep *Report) {
		got := rep.Value("share.tib") + rep.Value("share.query") + rep.Value("share.wire")
		rep.target("tib + query + wire self >= 60 %", got, got >= 0.60)
		rpcShare := rep.Value("share.rpc")
		rep.target("rpc self <= 20 %", rpcShare, rpcShare <= 0.20)
		sum := rep.Value("share.sum")
		rep.target("layer self times sum to latency within 15 %", sum, sum >= 0.85 && sum <= 1.15)
	}
	return w
}
