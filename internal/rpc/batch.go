// Batched multi-host queries: a MultiAgentServer hosts several co-located
// agents behind one listener (one daemon per server machine rather than
// one per host), and HTTPTransport.QueryMany collapses the controller's
// leaf fan-out into one /batchquery round trip per daemon. Hosts with
// their own URLs keep using plain per-host /query, so mixed deployments
// work; several hosts mapped onto one single-agent daemon is a
// misconfiguration and reported as an explicit error, never answered
// with one agent's data under many host labels.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// MultiAgentServer serves the host API for several co-located agents.
// The per-host endpoints (/query, /install, /uninstall, /snapshot) pick
// their agent by the request's host field, which may be omitted only
// when exactly one agent is served; /batchquery executes one query
// across many hosts server-side, fanning out concurrently.
// Install/uninstall handlers are serialised across all hosts: co-located
// agents share one simulator, whose timer heap is not safe for
// concurrent mutation.
type MultiAgentServer struct {
	Targets map[types.HostID]Target
	// Parallelism bounds the server-side batch fan-out (<= 0 unlimited).
	Parallelism int

	// MaxBodyBytes caps request bodies (<= 0 = DefaultMaxBody); batch
	// installs across many hosts may need it raised.
	MaxBodyBytes int64
	// Obs mounts the server's observability surface — /metrics,
	// /healthz override, optional pprof — and instruments every
	// endpoint (nil = uninstrumented; /healthz is served regardless).
	Obs *ServerObs

	instMu sync.Mutex
}

// target resolves one request's agent.
func (s *MultiAgentServer) target(h *types.HostID) (Target, error) {
	if h == nil {
		if len(s.Targets) == 1 {
			for _, t := range s.Targets {
				return t, nil
			}
		}
		return nil, errors.New("rpc: multi-agent server requires a host field")
	}
	t, ok := s.Targets[*h]
	if !ok {
		return nil, fmt.Errorf("rpc: host %v not served here", *h)
	}
	return t, nil
}

// Handler returns the daemon's HTTP mux: the shared host API plus
// /batchquery.
func (s *MultiAgentServer) Handler() http.Handler {
	api := hostAPI{
		resolve: s.target,
		targets: slices.Collect(maps.Values(s.Targets)),
		maxBody: s.MaxBodyBytes,
		obs:     s.Obs,
		instMu:  &s.instMu,
	}
	mux := api.mux()
	mux.HandleFunc("/batchquery", s.Obs.wrap("batchquery", func(w http.ResponseWriter, r *http.Request) {
		var req BatchQueryRequest
		if !decode(w, r, &req, s.MaxBodyBytes) {
			return
		}
		b := s.openBatch(r.Context(), &req)
		defer b.close()
		// Section 0 is evaluated before a byte is written: a failure up to
		// here answers as the whole request's, one after it cuts the frame.
		if len(req.Hosts) > 0 {
			b.next(0)
		}
		if err := r.Context().Err(); err != nil {
			writeExecuteError(w, err)
			return
		}
		writeBatchResponse(w, r, len(req.Hosts), b.next)
	}))
	return mux
}

// batchWindow evaluates one /batchquery and hands its sections to the
// writer in request order, through W = min(bound, n) slots: host i is
// evaluated into slot i mod W once section i-W has been written and its
// records recycled, so at most W answers are ever held. The bound is the
// tighter of the daemon's own Parallelism and the one the request carries
// from the controller (none: a slot per host). W-1 workers claim hosts in
// order; the handler's goroutine, waiting on a section, claims one itself
// whenever a slot is free, so W evaluations run at once as before. A
// cancelled request context (the controller hung up, or its deadline
// fired mid-batch) stops the fan-out: no further host is started,
// in-flight evaluations abort at their next shard-merge poll, and next
// reports the failure instead of handing out an answer it cut short.
type batchWindow struct {
	s     *MultiAgentServer
	ctx   context.Context
	req   *BatchQueryRequest
	slots []batchSlot

	mu      sync.Mutex
	cond    sync.Cond // signalled when a section is evaluated or a slot frees
	claimed int       // hosts claimed for evaluation, in request order
	written int       // sections handed to the writer and since recycled
	closed  bool
	workers sync.WaitGroup
}

// batchSlot holds the section being evaluated or waiting to be written.
type batchSlot struct {
	rep  wire.BatchReply
	done bool
}

// openBatch starts evaluating req's hosts.
func (s *MultiAgentServer) openBatch(ctx context.Context, req *BatchQueryRequest) *batchWindow {
	w := s.Parallelism
	if req.Parallel > 0 && (w <= 0 || req.Parallel < w) {
		w = req.Parallel
	}
	if w <= 0 || w > len(req.Hosts) {
		w = len(req.Hosts)
	}
	b := &batchWindow{s: s, ctx: ctx, req: req, slots: make([]batchSlot, w)}
	b.cond.L = &b.mu
	for range w - 1 {
		b.workers.Add(1)
		go b.work()
	}
	return b
}

// claim picks the next host to evaluate, if the request is live and a
// slot is free for it; b.mu is held.
func (b *batchWindow) claim() (int, bool) {
	i := b.claimed
	if b.closed || i >= len(b.req.Hosts) || i >= b.written+len(b.slots) || b.ctx.Err() != nil {
		return 0, false
	}
	b.claimed++
	return i, true
}

// eval evaluates host i into its slot, releasing b.mu meanwhile.
func (b *batchWindow) eval(i int) {
	sl := &b.slots[i%len(b.slots)]
	b.mu.Unlock()
	b.s.runHost(b.ctx, b.req.Hosts[i], b.req.Query, &sl.rep)
	b.mu.Lock()
	sl.done = true
	b.cond.Broadcast()
}

// work is one worker: it evaluates hosts until none is left to claim, or
// the window closes.
func (b *batchWindow) work() {
	defer b.workers.Done()
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && b.claimed < len(b.req.Hosts) && b.ctx.Err() == nil {
		if i, ok := b.claim(); ok {
			b.eval(i)
		} else {
			b.cond.Wait()
		}
	}
}

// next returns section i once it is evaluated, recycling the sections
// before it — whose writing is over — first; nil means the request failed
// and the frame must stop. Sections are asked for in order, each any
// number of times. The section is the caller's until it asks for the next
// one or closes the window; it may take the records (and clear them) to
// recycle itself.
func (b *batchWindow) next(i int) *wire.BatchReply {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ; b.written < i; b.written++ {
		b.recycle(&b.slots[b.written%len(b.slots)])
		b.cond.Broadcast()
	}
	sl := &b.slots[i%len(b.slots)]
	for !sl.done {
		if j, ok := b.claim(); ok {
			b.eval(j)
		} else if i >= b.claimed {
			return nil // the request failed before anyone started host i
		} else {
			b.cond.Wait()
		}
	}
	if b.ctx.Err() != nil {
		return nil
	}
	return &sl.rep
}

// recycle empties a slot for its next host.
func (b *batchWindow) recycle(sl *batchSlot) {
	query.PutResultBufs(&sl.rep.Result)
	*sl = batchSlot{}
}

// close stops the workers, waits for every one to exit and recycles what
// the slots still hold.
func (b *batchWindow) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.workers.Wait()
	for i := range b.slots {
		b.recycle(&b.slots[i])
	}
}

// runHost fills one host's slot of a batch reply.
func (s *MultiAgentServer) runHost(ctx context.Context, h types.HostID, q query.Query, rep *wire.BatchReply) {
	rep.Host = h
	t, ok := s.Targets[h]
	if !ok {
		rep.Error = fmt.Sprintf("rpc: host %v not served here", h)
		return
	}
	res, m, err := controller.Evaluate(ctx, t, q, nil)
	if err != nil {
		rep.Error = err.Error()
		return
	}
	rep.Result, rep.Meta = res, m
}

// QueryMany implements controller.BatchTransport: hosts sharing a daemon
// URL ride one /batchquery round trip (the request carries `parallel` so
// the daemon's server-side fan-out honours the controller's bound), and
// lone hosts use plain per-host /query. At most `parallel` HTTP requests
// are outstanding at once (<= 0 means unlimited). Several hosts mapped
// to one single-agent daemon is reported as an error per slot. The
// context rides every HTTP request, so cancellation aborts in-flight
// round trips and the daemons' server-side fan-outs with them. The reply
// array comes from controller.GetBatchReplies, whose pool the controller
// hands it back to once the execution has folded it.
func (t *HTTPTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]controller.BatchReply, error) {
	replies := controller.GetBatchReplies(len(hosts))
	// Group the hosts by daemon in one pass. order lists host indices
	// group by group, and the newest group's idx is its tail: hosts that
	// arrive daemon by daemon (a tree's leaves, a fleet in ID order) only
	// ever extend it. A host of an earlier daemon finds its group through
	// a map made when the second daemon shows up; that group's idx, cut
	// off at its length, then grows on its own.
	type group struct {
		url string
		lo  int // where idx starts in order
		idx []int
	}
	var groups []group
	var byURL map[string]int
	order := make([]int, 0, len(hosts))
	for i, h := range hosts {
		replies[i].Host = h
		base, ok := t.URLs[h]
		if !ok {
			replies[i].Err = fmt.Errorf("rpc: no URL for host %v", h)
			continue
		}
		gi := len(groups) - 1
		if gi < 0 || groups[gi].url != base {
			var seen bool
			if gi, seen = byURL[base]; !seen {
				if gi = len(groups); gi == 1 {
					byURL = map[string]int{groups[0].url: 0}
				}
				if gi > 0 {
					byURL[base] = gi
				}
				groups = append(groups, group{url: base, lo: len(order)})
			}
		}
		if g := &groups[gi]; gi == len(groups)-1 {
			order = append(order, i)
			g.idx = order[g.lo:len(order):len(order)]
		} else {
			g.idx = append(g.idx, i)
		}
	}
	if len(groups) == 0 {
		// Every requested host lacked a URL; the per-slot errors above
		// already say so.
		return replies, nil
	}
	// Carve the caller's bound across daemon groups so that total
	// concurrent per-host executions — server-side batch fan-outs plus
	// per-host requests — stay within `parallel`: at most min(G, P)
	// requests are outstanding (one semaphore slot each) and each batch
	// carries a share of at most max(1, P/G), whose product never
	// exceeds P.
	share := 0
	var sem chan struct{}
	if parallel > 0 {
		sem = make(chan struct{}, parallel)
		share = max(parallel/len(groups), 1)
	}
	var wg sync.WaitGroup
	for _, g := range groups[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.queryGroup(ctx, g.url, hosts, g.idx, q, replies, sem, share)
		}()
	}
	t.queryGroup(ctx, groups[0].url, hosts, groups[0].idx, q, replies, sem, share)
	wg.Wait()
	return replies, nil
}

// queryGroup resolves all of one daemon's hosts, batching when possible.
// share is this group's slice of the caller's parallelism bound (0 =
// unlimited), forwarded to the daemon's server-side fan-out.
func (t *HTTPTransport) queryGroup(ctx context.Context, url string, hosts []types.HostID, idx []int, q query.Query, replies []controller.BatchReply, sem chan struct{}, share int) {
	if sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-ctx.Done():
			for _, i := range idx {
				replies[i].Err = ctx.Err()
			}
			return
		}
	}
	if len(idx) == 1 {
		i := idx[0]
		r, meta, err := t.Query(ctx, hosts[i], q)
		replies[i] = controller.BatchReply{Host: hosts[i], Result: r, Meta: meta, Err: err}
		return
	}
	batch := make([]types.HostID, len(idx))
	for j, i := range idx {
		batch[j] = hosts[i]
	}
	buf := getReqBuf()
	defer putReqBuf(buf)
	err := wire.WriteBatchRequest(buf, batch, &q, share)
	if err == nil {
		err = t.dp.roundTrip(ctx, url, "/batchquery", buf.Bytes(), func(r *reply) error {
			return readBatch(r, url, batch, idx, replies)
		})
	}
	if se, ok := err.(*StatusError); ok && (se.Code == http.StatusNotFound || se.Code == http.StatusMethodNotAllowed) {
		// Only single-agent daemons lack /batchquery, and a single-agent
		// daemon answers /query for whichever one agent it wraps — it
		// cannot tell hosts apart. Falling back per-host here would
		// return that one agent's records once per requested host
		// (silently duplicated data), so fail loudly instead.
		err = fmt.Errorf("rpc: %s serves a single agent (no /batchquery) but %d hosts map to it — run a multi-host daemon (pathdumpd -hosts) or give each host its own URL", url, len(idx))
	}
	if err != nil {
		// A batch fails whole: the sections already in their slots go
		// back to the pools with the rest.
		for _, i := range idx {
			query.PutResultBufs(&replies[i].Result)
			replies[i] = controller.BatchReply{Host: hosts[i], Err: err}
		}
	}
}

// readBatch decodes one /batchquery reply body, each section once, into
// the slot of the host it was asked for, where it stays. Reply j must be
// host j's: merging a section under the requested label without looking
// at the one it carries would file one host's records under another's
// name.
func readBatch(body io.Reader, url string, batch []types.HostID, idx []int, replies []controller.BatchReply) error {
	got := 0
	err := wire.ReadBatchEach(body, func(j, n int, sec *wire.BatchReply) error {
		if got = n; n != len(idx) {
			query.PutResultBufs(&sec.Result)
			return nil // nowhere to put it; reported below, once
		}
		rep := &replies[idx[j]]
		rep.Result = sec.Result // stored first: a failed batch returns what its slots hold
		if sec.Host != batch[j] {
			return fmt.Errorf("rpc: %s/batchquery reply %d is for host %v, asked for %v", url, j, sec.Host, batch[j])
		}
		rep.Meta = sec.Meta
		if sec.Error != "" {
			rep.Err = fmt.Errorf("rpc: host %v: %s", batch[j], sec.Error)
		}
		return nil
	})
	if err == nil && got != len(idx) {
		err = fmt.Errorf("rpc: %s/batchquery returned %d replies for %d hosts", url, got, len(idx))
	}
	return err
}
