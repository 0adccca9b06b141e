package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathdump/internal/controller"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// The layer ladder. The harness may not instrument the program, so for a
// sampled op it replays each step's inputs through each layer's exported
// entry point in isolation: the store calls, query.ExecuteContext over a
// StoreView, Agent.ExecuteContext, the wire codec on the step's own
// replies, the merge, the controller over a transport that answers from
// memory, the transport calls that controller made over real HTTP, and the
// controller over controller.Local. A rung covers every host the step
// asked, at the controller's Parallelism, so its span is wall time
// comparable with the step's own. A layer's self time is the median of
// its rung minus the medians of the rungs it contains:
//
//	tib        = tib.calls
//	query      = query.execute - tib.calls, plus query.merge
//	agent      = agent.execute - query.execute
//	wire       = wire.codec
//	rpc        = rpc.trips - agent.execute - wire.codec
//	controller = controller.exec_canned - query.merge
//
// Nothing in it is derived from the measured op, so whether the rungs
// account for the op is a real question, and the report answers it: the
// self times' sum is set against the median latency of the sampled ops.
// (The span tree on ExecStats.Trace would give the controller's self time
// too, but runBatch finishes its spans after the answer has been
// returned, so reading them from outside is a data race.)

// parallelism is the controller's fan-out bound, and so the ladder's.
const parallelism = 2

// each runs fn(worker, i) for i in [0, n) on parallelism goroutines and
// returns the wall time of the whole and the summed time of the calls.
func each(n int, fn func(worker, i int)) (wall, busy time.Duration) {
	var next atomic.Int64
	var spent [parallelism]time.Duration
	var wg sync.WaitGroup
	t0 := time.Now()
	for wk := 0; wk < parallelism; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				c0 := time.Now()
				fn(wk, i)
				spent[wk] += time.Since(c0)
			}
		}()
	}
	wg.Wait()
	wall = time.Since(t0)
	for _, d := range spent {
		busy += d
	}
	return wall, busy
}

// ladder accumulates the sampled ops of one traced window.
type ladder struct {
	samples []*ladderSample
	hedged  int
	retried int
	partial int
	errors  int
}

// ladderSample is one sampled op: its latency, each rung's wall time
// summed over the op's steps (us), and the detail metrics — sums (per op)
// and ratios (numerator, denominator) keyed by per-layer metric name.
type ladderSample struct {
	lat    time.Duration
	rungs  map[string]float64
	sums   map[string]float64
	ratios map[string]*[2]float64
}

func newLadderSample() *ladderSample {
	return &ladderSample{rungs: make(map[string]float64), sums: make(map[string]float64), ratios: make(map[string]*[2]float64)}
}

func (l *ladder) end(s *ladderSample, lat time.Duration) {
	s.lat = lat
	l.samples = append(l.samples, s)
}

// count folds one execution's controller counters into the window's.
func (l *ladder) count(stats controller.ExecStats, err error) {
	l.hedged += stats.Hedged
	l.retried += stats.Retried
	if stats.Partial {
		l.partial++
	}
	if err != nil {
		l.errors++
	}
}

func (s *ladderSample) sum(name string, v float64) { s.sums[name] += v }

func (s *ladderSample) ratio(name string, num, den float64) {
	r := s.ratios[name]
	if r == nil {
		r = new([2]float64)
		s.ratios[name] = r
	}
	r[0] += num
	r[1] += den
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// report reduces the samples to medians and writes the layer-share
// report: each layer's self time — the median of its rung minus the
// medians of the rungs it contains — over the median sampled latency.
func (l *ladder) report(rep *Report) {
	rep.set("controller.hedged", float64(l.hedged))
	rep.set("controller.retried", float64(l.retried))
	rep.set("controller.partial", float64(l.partial))
	rep.set("rpc.errors", float64(l.errors))
	rep.set("bench.ladder_samples", float64(len(l.samples)))
	if len(l.samples) == 0 {
		return
	}
	cols := make(map[string][]float64)
	rungs := make(map[string][]float64)
	var lats []float64
	for _, s := range l.samples {
		lats = append(lats, us(s.lat))
		for k, v := range s.rungs {
			rungs[k] = append(rungs[k], v)
		}
		for k, v := range s.sums {
			cols[k] = append(cols[k], v)
		}
		for k, r := range s.ratios {
			if r[1] > 0 {
				cols[k] = append(cols[k], r[0]/r[1])
			}
		}
	}
	for k, xs := range cols {
		rep.set(k, median(xs))
	}
	r := func(name string) float64 { return median(rungs[name]) }
	self := map[string]float64{
		"tib":        r("tib.calls"),
		"query":      max(r("query.execute")-r("tib.calls"), 0) + r("query.merge"),
		"agent":      max(r("agent.execute")-r("query.execute"), 0),
		"wire":       r("wire.codec"),
		"rpc":        max(r("rpc.trips")-r("agent.execute")-r("wire.codec"), 0),
		"controller": max(r("controller.exec_canned")-r("query.merge"), 0),
	}
	rep.set("rpc.self_us", self["rpc"])
	rep.set("controller.self_us", self["controller"])
	lat := median(lats)
	for layer, v := range self {
		rep.set("share."+layer, v/lat)
	}
	rep.shareReport(fmt.Sprintf("layer self time and share of the median sampled op (%.1f us, %d ops):", lat, len(l.samples)), self)
}

// shareReport writes the layer-share report from each layer's self time
// (us) and its share.<layer> metric, and sets share.sum.
func (r *Report) shareReport(title string, self map[string]float64) {
	r.Shares = append(r.Shares, title)
	total := 0.0
	for _, layer := range layers {
		share := r.vals["share."+layer]
		total += share
		r.Shares = append(r.Shares, fmt.Sprintf("    %-11s %10.1f us  %5.1f %%", layer, self[layer], 100*share))
	}
	r.set("share.sum", total)
	r.Shares = append(r.Shares, fmt.Sprintf("    %-11s %10s     %5.1f %%", "sum", "", 100*total))
}

// target appends one discrimination-target line to the share report.
func (r *Report) target(what string, got float64, ok bool) {
	verdict := "met"
	if !ok {
		verdict = "NOT MET"
	}
	r.Shares = append(r.Shares, fmt.Sprintf("    target: %-44s %5.1f %%  %s", what, 100*got, verdict))
}

// stepRun is one executed step of a sampled op, kept for the ladder.
type stepRun struct {
	st   *step
	q    query.Query
	d    time.Duration
	span int
}

func rangeOf(q query.Query) types.TimeRange {
	if q.Range == (types.TimeRange{}) {
		return types.AllTime
	}
	return q.Range
}

// storeCalls makes the tib.Store calls the query layer makes for q.
func storeCalls(s *tib.Store, q query.Query) {
	tr := rangeOf(q)
	switch q.Op {
	case query.OpRecords:
		s.Scan(query.PredicateOf(q).Flow, q.Link, tr, func(*types.Record) {})
	case query.OpFlows:
		s.Flows(q.Link, tr)
	case query.OpPaths:
		s.Paths(q.Flow, q.Link, tr)
	case query.OpCount:
		s.Count(types.Flow{ID: q.Flow, Path: q.Path}, tr)
	case query.OpTopK:
		seen := make(map[types.FlowID]bool)
		for _, fl := range s.Flows(types.AnyLink, tr) {
			if !seen[fl.ID] {
				seen[fl.ID] = true
				s.Count(types.Flow{ID: fl.ID}, tr)
			}
		}
	}
}

func itemCount(r *query.Result) int {
	return len(r.Flows) + len(r.Paths) + len(r.Top) + len(r.Records)
}

// call is one transport call the controller makes for a step.
type call struct {
	hosts    []types.HostID
	batch    bool // QueryMany, with its parallel argument; else Query
	parallel int
}

// canned is a controller transport that answers from memory and notes
// what it was asked: under it the controller does all of its own work —
// tree, goroutines, batching, merge, response-time model — and none of
// anyone else's.
type canned struct {
	replies map[types.HostID]*query.Result
	mu      sync.Mutex
	calls   []call
}

func (c *canned) note(k call) {
	c.mu.Lock()
	c.calls = append(c.calls, k)
	c.mu.Unlock()
}

// Query implements controller.Transport.
func (c *canned) Query(_ context.Context, host types.HostID, _ query.Query) (query.Result, controller.QueryMeta, error) {
	c.note(call{hosts: []types.HostID{host}})
	return *c.replies[host], controller.QueryMeta{}, nil
}

// QueryMany implements controller.BatchTransport.
func (c *canned) QueryMany(_ context.Context, hosts []types.HostID, _ query.Query, parallel int) ([]controller.BatchReply, error) {
	c.note(call{hosts: hosts, batch: true, parallel: parallel})
	out := make([]controller.BatchReply, len(hosts))
	for i, h := range hosts {
		out[i] = controller.BatchReply{Host: h, Result: *c.replies[h]}
	}
	return out, nil
}

// Install implements controller.Transport; the ladder installs nothing.
func (c *canned) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 0, errors.New("bench: canned transport installs nothing")
}

// Uninstall implements controller.Transport.
func (c *canned) Uninstall(context.Context, types.HostID, int) error {
	return errors.New("bench: canned transport installs nothing")
}

// step replays one executed step through the ladder and adds its rungs
// and detail metrics to the sample.
func (s *ladderSample) step(w *queryWorld, run *stepRun, tr *tracer, op int) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	q, st := run.q, run.st
	// rung records one rung: its span, under the step it replays, and its
	// wall time.
	rung := func(name string, t0 time.Time, wall time.Duration) {
		tr.add(op, run.span, name, t0, wall)
		s.rungs[name] += us(wall)
	}
	n := len(w.hosts)
	pred := query.PredicateOf(q)
	agents := w.fab.agents
	results := make([]query.Result, n)
	decoded := make([]query.Result, n)

	// tib, read side: the raw scan behind the op's predicate…
	var visited atomic.Int64
	var sc, sp uint64
	for _, ag := range agents {
		a, b := ag.Store.SegmentStats()
		sc, sp = sc-a, sp-b
	}
	t0 := time.Now()
	wall, busy := each(n, func(_, i int) {
		seen := 0
		agents[i].Store.Scan(pred.Flow, pred.Link, pred.Range, func(*types.Record) { seen++ })
		visited.Add(int64(seen))
	})
	tr.add(op, run.span, "tib.scan", t0, wall)
	for _, ag := range agents {
		a, b := ag.Store.SegmentStats()
		sc, sp = sc+a, sp+b
	}
	s.ratio("tib.scan_ns_per_record", float64(busy.Nanoseconds()), float64(visited.Load()))
	s.ratio("tib.segments_pruned_share", float64(sp), float64(sp+sc))
	// …and the store calls the query layer makes for it.
	cold0 := w.coldLoads()
	t0 = time.Now()
	wall, busy = each(n, func(_, i int) { storeCalls(agents[i].Store, q) })
	rung("tib.calls", t0, wall)
	if loads := w.coldLoads() - cold0; loads > 0 {
		s.ratio("tib.cold_load_us", us(busy), float64(loads))
	}
	// query: the same work through query.ExecuteContext over a StoreView.
	t0 = time.Now()
	wall, busy = each(n, func(_, i int) {
		results[i], _ = query.ExecuteContext(ctx, q, query.StoreView{S: agents[i].Store})
	})
	rung("query.execute", t0, wall)
	if q.Op == query.OpTopK || q.Op == query.OpRecords || q.Op == query.OpFlows {
		s.ratio("query.exec_"+string(q.Op)+"_us", us(busy), float64(n))
	}
	items := 0
	for i := range results {
		items += itemCount(&results[i])
	}
	s.ratio("query.records_scanned_per_result", float64(visited.Load()), float64(items))
	// agent: the same again through each agent's own view.
	t0 = time.Now()
	wall, busy = each(n, func(_, i int) {
		r, _ := agents[i].ExecuteContext(ctx, q)
		query.PutRecordBuf(r.Records)
	})
	rung("agent.execute", t0, wall)
	s.ratio("agent.execute_us", us(busy), float64(n))

	// wire: every exchange's request and reply, encoded and decoded — one
	// exchange per host behind single-agent daemons, one per daemon
	// otherwise.
	exchanges := (n + w.perDaemon - 1) / w.perDaemon
	codecs := make([]codec, exchanges)
	var bufs [parallelism][2]bytes.Buffer
	t0 = time.Now()
	wall, _ = each(exchanges, func(wk, i int) {
		lo := i * w.perDaemon
		hi := min(lo+w.perDaemon, n)
		if w.perDaemon == 1 {
			codecs[i] = wireSingle(&bufs[wk][0], &bufs[wk][1], w.hosts[lo], q, &results[lo], &decoded[lo])
		} else {
			codecs[i] = wireBatch(&bufs[wk][0], &bufs[wk][1], w.hosts[lo:hi], q, results[lo:hi], decoded[lo:hi])
		}
	})
	rung("wire.codec", t0, wall)
	for i := range codecs {
		s.codec(q.Op, &codecs[i])
	}
	// query, merge side: fold the decoded replies as the controller does,
	// in the shape of the step's aggregation tree.
	t0 = time.Now()
	mergeInto(q, &query.Result{}, mergeLevels(q, decoded, st.tree))
	d := time.Since(t0)
	rung("query.merge", t0, d)
	s.sum("query.merge_us", us(d))
	s.sums["query.merge_children"] = float64(n)
	// controller: the step again over the canned transport, which hands
	// out the decoded replies (the controller recycles record buffers).
	w.canned.calls = nil
	for i, h := range w.hosts {
		w.canned.replies[h] = &decoded[i]
	}
	t0 = time.Now()
	w.exec(ctx, w.cannedCtrl, st, q)
	rung("controller.exec_canned", t0, time.Since(t0))
	for i := range results {
		query.PutRecordBuf(results[i].Records)
	}
	// rpc: the transport calls the controller made, made again against
	// the live daemons with no controller around them; then one round trip
	// of each kind alone.
	calls := w.canned.calls
	traced := obs.ContextWithTrace(ctx, obs.NewTraceID()) // as the controller's requests are
	t0 = time.Now()
	wall, _ = each(len(calls), func(_, i int) {
		c := &calls[i]
		if !c.batch {
			r, _, _ := w.transport.Query(traced, c.hosts[0], q)
			query.PutRecordBuf(r.Records)
			return
		}
		replies, _ := w.transport.QueryMany(traced, c.hosts, q, c.parallel)
		for i := range replies {
			query.PutRecordBuf(replies[i].Result.Records)
		}
	})
	rung("rpc.trips", t0, wall)
	t0 = time.Now()
	r, _, _ := w.transport.Query(ctx, w.hosts[0], q)
	d = time.Since(t0)
	query.PutRecordBuf(r.Records)
	tr.add(op, run.span, "rpc.roundtrip", t0, d)
	s.ratio("rpc.roundtrip_us", us(d), 1)
	if w.perDaemon > 1 {
		t0 = time.Now()
		replies, _ := w.transport.QueryMany(ctx, w.hosts[:min(w.perDaemon, n)], q, 1)
		d = time.Since(t0)
		for i := range replies {
			query.PutRecordBuf(replies[i].Result.Records)
		}
		tr.add(op, run.span, "rpc.batch_roundtrip", t0, d)
		s.ratio("rpc.batch_roundtrip_us", us(d), 1)
	}
	// controller: the whole execution again with no sockets and no codec.
	t0 = time.Now()
	w.exec(ctx, w.local, st, q)
	d = time.Since(t0)
	tr.add(op, run.span, "controller.exec_local", t0, d)
	s.sum("controller.exec_http_us", us(run.d))
	s.sum("controller.exec_local_us", us(d))
}

// mergeInto folds kids into dst in index order.
func mergeInto(q query.Query, dst *query.Result, kids []query.Result) {
	sm := query.NewStreamMerger(q, dst, len(kids))
	for i := range kids {
		sm.Add(i, &kids[i])
	}
}

// mergeLevels merges per-host replies bottom-up the way the controller's
// aggregation tree does — hosts cut into fanouts[0] contiguous groups,
// each group's first host the merge base for the rest, recursively — and
// returns the top level's results. No fanouts left: the replies themselves.
func mergeLevels(q query.Query, res []query.Result, fanouts []int) []query.Result {
	if len(fanouts) == 0 || len(res) == 0 {
		return res
	}
	n := fanouts[0]
	if n <= 0 || n > len(res) {
		n = len(res)
	}
	out := make([]query.Result, 0, n)
	for g := 0; g < n; g++ {
		group := res[g*len(res)/n : (g+1)*len(res)/n]
		if len(group) == 0 {
			continue
		}
		node := group[0]
		mergeInto(q, &node, mergeLevels(q, group[1:], fanouts[1:]))
		out = append(out, node)
	}
	return out
}

// codec is one exchange's codec work: the request's encode time and
// size, the reply's encode and decode time, size and record count.
type codec struct {
	req, enc, dec           time.Duration
	reqBytes, size, records float64
}

// wireSingle encodes one host's request and reply as a single-agent
// daemon exchange does (records replies through the stream writer) and
// decodes the reply as HTTPTransport.Query does.
func wireSingle(reqBuf, respBuf *bytes.Buffer, h types.HostID, q query.Query, res, out *query.Result) (c codec) {
	reqBuf.Reset()
	respBuf.Reset()
	t0 := time.Now()
	wire.WriteQueryRequest(reqBuf, &h, &q)
	t1 := time.Now()
	if q.Op != query.OpRecords {
		wire.WriteQuery(respBuf, wire.Meta{}, res, false)
	} else if sw, err := wire.NewQueryStreamWriter(respBuf, wire.Meta{}, q.Op, false); err == nil {
		for i := range res.Records {
			sw.Append(&res.Records[i])
		}
		sw.Close(0, 0)
	}
	t2 := time.Now()
	c.reqBytes, c.size, c.records = float64(reqBuf.Len()), float64(respBuf.Len()), float64(len(res.Records))
	recs := query.GetRecordBuf()
	_, r, err := wire.ReadQueryChunks(respBuf, func(chunk []types.Record) { recs = append(recs, chunk...) })
	if err == nil {
		*out = *r
		out.Records = recs
	}
	c.req, c.enc, c.dec = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return c
}

// wireBatch encodes one /batchquery exchange for one daemon's hosts and
// decodes it.
func wireBatch(reqBuf, respBuf *bytes.Buffer, hosts []types.HostID, q query.Query, res, out []query.Result) (c codec) {
	reqBuf.Reset()
	respBuf.Reset()
	replies := make([]wire.BatchReply, len(hosts))
	for i, h := range hosts {
		replies[i] = wire.BatchReply{Host: h, Result: res[i]}
		c.records += float64(len(res[i].Records))
	}
	t0 := time.Now()
	wire.WriteBatchRequest(reqBuf, hosts, &q, 1)
	t1 := time.Now()
	wire.WriteBatch(respBuf, replies, false)
	t2 := time.Now()
	c.reqBytes, c.size = float64(reqBuf.Len()), float64(respBuf.Len())
	got, err := wire.ReadBatch(respBuf)
	if err == nil && len(got) == len(out) {
		for i := range got {
			out[i] = got[i].Result
		}
	}
	c.req, c.enc, c.dec = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return c
}

// codec accounts for one exchange: the request per exchange, the reply
// per record for record replies and per frame for top-k (aggregate) ones.
func (s *ladderSample) codec(op query.Op, c *codec) {
	s.ratio("wire.req_encode_ns", float64(c.req.Nanoseconds()), 1)
	s.ratio("wire.req_bytes", c.reqBytes, 1)
	switch op {
	case query.OpRecords:
		s.ratio("wire.resp_encode_ns_per_record", float64(c.enc.Nanoseconds()), c.records)
		s.ratio("wire.resp_decode_ns_per_record", float64(c.dec.Nanoseconds()), c.records)
		s.ratio("wire.bytes_per_record", c.size, c.records)
	case query.OpTopK:
		s.ratio("wire.agg_encode_us", us(c.enc), 1)
		s.ratio("wire.agg_decode_us", us(c.dec), 1)
	}
}
