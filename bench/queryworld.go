package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/controller"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/types"
)

// step is one query of a debugging session.
type step struct {
	name string
	q    query.Query
	tree []int // aggregation-tree fan-outs; nil = direct query
	// leader, when >= 0, makes the step query the flow at that rank of
	// the session's preceding top-k answer (the data-dependent step of a
	// real debugging session).
	leader int
	// last, when > 0, makes the step cover only that much virtual time
	// up to now (the live workload's "what just happened" queries).
	last types.Time
}

// session is one fixed sequence of steps; a workload cycles through a
// few variants of it so that no op is a replay of the one before.
type session struct {
	steps []step
	want  []sig // the oracle's signature per step
}

// queryWorld is the serving stack the query workloads and the live
// workload's sessions run against: agents behind real HTTP daemons on
// loopback, and a controller over rpc.HTTPTransport, as pathdumpd and
// pathdumpctl wire them.
type queryWorld struct {
	fab       *fabric
	daemons   []*daemon
	client    *http.Client
	transport *rpc.HTTPTransport
	ctrl      *controller.Controller // over transport: the path under test
	// The ladder's controllers: over controller.Local (same agents, no
	// sockets, no codec) and over a transport that answers from memory.
	local      *controller.Controller
	canned     *canned
	cannedCtrl *controller.Controller
	hosts      []types.HostID
	// perDaemon is how many hosts share a daemon: 1 = single-agent
	// daemons, more = multi-agent ones (with /batchquery).
	perDaemon int
	coldDir   string
	truth     [][]types.Record
	sessions  []session
	// validate, when set, checks an answer the oracle has no signature
	// for (the live workload's stores change under the queries).
	validate func(q query.Query, res *query.Result) error
	// now reads the virtual clock for steps with a last window.
	now func() types.Time
	lad ladder
}

// serveAgents puts the fabric's agents behind daemons: perDaemon hosts
// per rpc.MultiAgentServer, or one rpc.AgentServer per host when
// perDaemon is 1 (pathdumpd's default mode, the only one that streams
// record replies). wrap adapts an agent into the served target.
func (w *queryWorld) serveAgents(perDaemon int, wrap func(*agent.Agent) rpc.Target) error {
	w.client = newClient()
	urls := make(map[types.HostID]string)
	for lo := 0; lo < len(w.fab.agents); lo += perDaemon {
		hi := min(lo+perDaemon, len(w.fab.agents))
		so := &rpc.ServerObs{Registry: obs.NewRegistry()}
		var h http.Handler
		if perDaemon == 1 {
			h = (&rpc.AgentServer{T: wrap(w.fab.agents[lo]), Obs: so}).Handler()
		} else {
			targets := make(map[types.HostID]rpc.Target)
			for i := lo; i < hi; i++ {
				targets[w.fab.hosts[i]] = wrap(w.fab.agents[i])
			}
			h = (&rpc.MultiAgentServer{Targets: targets, Obs: so}).Handler()
		}
		d, err := serve(h)
		if err != nil {
			return err
		}
		w.daemons = append(w.daemons, d)
		for i := lo; i < hi; i++ {
			urls[w.fab.hosts[i]] = d.url
		}
	}
	w.hosts = w.fab.hosts
	w.perDaemon = perDaemon
	w.transport = &rpc.HTTPTransport{URLs: urls, Client: w.client}
	w.ctrl = controller.New(w.fab.topo, w.transport, nil)
	w.ctrl.Parallelism = parallelism
	agents := make(map[types.HostID]*agent.Agent)
	for i, h := range w.fab.hosts {
		agents[h] = w.fab.agents[i]
	}
	w.local = controller.New(w.fab.topo, controller.Local{Agents: agents}, nil)
	w.local.Parallelism = parallelism
	w.canned = &canned{replies: make(map[types.HostID]*query.Result)}
	w.cannedCtrl = controller.New(w.fab.topo, w.canned, nil)
	w.cannedCtrl.Parallelism = parallelism
	return nil
}

func (w *queryWorld) close() {
	for _, d := range w.daemons {
		d.close()
	}
	if w.client != nil {
		closeClient(w.client)
	}
	if w.coldDir != "" {
		os.RemoveAll(w.coldDir)
	}
}

// exec runs one step through the controller over HTTP.
func (w *queryWorld) exec(ctx context.Context, c *controller.Controller, st *step, q query.Query) (query.Result, controller.ExecStats, error) {
	if st.tree != nil {
		return c.ExecuteTreeContext(ctx, w.hosts, q, st.tree)
	}
	return c.ExecuteContext(ctx, w.hosts, q)
}

// resolve fills in a step's data-dependent parts: the flow taken from
// the session's last top-k answer, the range ending at the present.
func (w *queryWorld) resolve(st *step, top []query.FlowBytes) (query.Query, error) {
	q := st.q
	if st.last > 0 {
		q.Range = types.Since(max(w.now()-st.last, 1))
	}
	if st.leader >= 0 {
		if st.leader >= len(top) {
			return q, fmt.Errorf("%s: top-k answer has %d flows, need rank %d", st.name, len(top), st.leader)
		}
		q.Flow = top[st.leader].Flow
	}
	return q, nil
}

// check validates one step's outcome: no error, a complete answer, and
// the oracle's signature when the session has one.
func check(res *query.Result, stats controller.ExecStats, err error, want *sig) error {
	if err != nil {
		return err
	}
	if stats.Partial {
		return fmt.Errorf("%s: partial answer (%d hosts skipped)", res.Op, stats.Skipped)
	}
	if want != nil {
		if got := sigOf(res); got != *want {
			return fmt.Errorf("%s: answer signature %+v, oracle has %+v", res.Op, got, *want)
		}
	}
	return nil
}

// prepare computes every session's oracle signatures and compares each
// step's merged answer with the oracle in full, once.
func (w *queryWorld) prepare(rep *Report) {
	o := newOracle(w.truth)
	rep.OracleDigest = fnvOffset
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for si := range w.sessions {
		s := &w.sessions[si]
		s.want = make([]sig, len(s.steps))
		var top, wantTop []query.FlowBytes
		for i := range s.steps {
			st := &s.steps[i]
			wq, err := w.resolve(st, wantTop)
			if err != nil {
				rep.fail("oracle: %v", err)
				return
			}
			want := o.answer(wq)
			s.want[i] = sigOf(&want)
			if s.want[i].n == 0 {
				rep.fail("session %d step %s: the oracle's answer is empty; the workload asks nothing", si, st.name)
			}
			rep.OracleDigest = digestOf(rep.OracleDigest, &want)
			q, err := w.resolve(st, top)
			if err != nil {
				rep.fail("session %d: %v", si, err)
				return
			}
			got, stats, err := w.exec(ctx, w.ctrl, st, q)
			if err := check(&got, stats, err, nil); err != nil {
				rep.fail("session %d step %s: %v", si, st.name, err)
				continue
			}
			if err := equal(&got, &want); err != nil {
				rep.fail("session %d step %s: %v", si, st.name, err)
			}
			if q.Op == query.OpTopK {
				top, wantTop = got.Top, want.Top
			}
		}
	}
	// The flat list has served its purpose; the window's heap should
	// hold the system, not the reference.
	w.truth = nil
}

// coldLoads totals the agents' cold-tier demand loads so far.
func (w *queryWorld) coldLoads() uint64 {
	var n uint64
	for _, a := range w.fab.agents {
		n += a.Store.ColdStats().Loads
	}
	return n
}

// runSession executes session variant v once and accounts for it. In a
// traced run every op gets spans, and every ladderEvery-th op is
// replayed through the layer ladder once it has completed; its sample
// is returned so a workload can add rungs of its own.
func (w *queryWorld) runSession(v int, m *meter, tr *tracer, op int) *ladderSample {
	s := &w.sessions[v%len(w.sessions)]
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	m.attempted++
	sampled := tr != nil && op%ladderEvery == 0
	var runs []stepRun
	var cold0 uint64
	if sampled && w.coldDir != "" {
		cold0 = w.coldLoads()
	}
	var top []query.FlowBytes
	var opErr error
	start := time.Now()
	opSpan := tr.add(op, 0, "op", start, 0)
	for i := range s.steps {
		st := &s.steps[i]
		q, err := w.resolve(st, top)
		if err != nil {
			opErr = err
			break
		}
		var want *sig
		if s.want != nil {
			want = &s.want[i]
		}
		t0 := time.Now()
		res, stats, err := w.exec(ctx, w.ctrl, st, q)
		d := time.Since(t0)
		if sampled {
			runs = append(runs, stepRun{st: st, q: q, d: d})
		}
		m.wireBytes += stats.WireBytes
		w.lad.count(stats, err)
		if err = check(&res, stats, err, want); err == nil && w.validate != nil {
			err = w.validate(q, &res)
		}
		if err != nil {
			opErr = err
			break
		}
		if q.Op == query.OpTopK {
			top = res.Top
		}
		if id := tr.add(op, opSpan, "step."+st.name, t0, d); sampled {
			runs[len(runs)-1].span = id
		}
	}
	lat := time.Since(start)
	if tr != nil {
		tr.Spans[opSpan-1].End = tr.Spans[opSpan-1].Start + lat.Nanoseconds()
	}
	if opErr != nil {
		m.failf("op %d: %v", op, opErr)
		return nil
	}
	m.units++
	m.lat = append(m.lat, us(lat))
	if !sampled {
		return nil
	}
	smp := newLadderSample()
	if w.coldDir != "" {
		smp.sum("tib.cold_loads_per_op", float64(w.coldLoads()-cold0))
	}
	for i := range runs {
		smp.step(w, &runs[i], tr, op)
	}
	w.lad.end(smp, lat)
	return smp
}

// closedLoop runs sessions back to back from one client until the
// window closes.
func (w *queryWorld) closedLoop(window time.Duration, m *meter, tr *tracer) {
	m.lat = make([]float64, 0, 1<<16)
	m.begin()
	for op := 0; time.Since(m.start) < window; op++ {
		w.runSession(op, m, tr, op)
	}
	m.end()
}

// finishQueries reports the metrics every session-running workload shares.
func (w *queryWorld) finishQueries(rep *Report, m *meter) {
	if m.units > 0 {
		rep.set("e2e.wire_kb_per_op", float64(m.wireBytes)/1024/m.units)
	}
	segs := 0
	for _, a := range w.fab.agents {
		segs += a.Store.Segments()
	}
	rep.set("tib.segments", float64(segs))
	w.lad.report(rep)
}
