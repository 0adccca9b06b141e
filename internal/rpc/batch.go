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
	// WireCompress flate-compresses wire-encoded responses.
	WireCompress bool
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
		resolve:  s.target,
		targets:  slices.Collect(maps.Values(s.Targets)),
		maxBody:  s.MaxBodyBytes,
		compress: s.WireCompress,
		obs:      s.Obs,
		instMu:   &s.instMu,
	}
	mux := api.mux()
	mux.HandleFunc("/batchquery", s.Obs.wrap("batchquery", func(w http.ResponseWriter, r *http.Request) {
		var req BatchQueryRequest
		if !decode(w, r, &req, s.MaxBodyBytes) {
			return
		}
		replies, err := s.runBatch(r.Context(), req)
		if err != nil {
			writeExecuteError(w, err)
			return
		}
		writeBatchResponse(w, r, s.WireCompress, replies)
		for i := range replies {
			query.PutRecordBuf(replies[i].Result.Records)
		}
	}))
	return mux
}

// runBatch executes one query at every requested host concurrently and
// returns replies aligned with the request order. The effective bound is
// the tighter of the daemon's own Parallelism and the one the request
// carries from the controller. A cancelled request context (the
// controller hung up, or its deadline fired mid-batch) stops the fan-out:
// hosts not yet started are skipped, in-flight evaluations abort at their
// next shard-merge poll, and the context error is returned so the handler
// drops the connection instead of fabricating a complete-looking reply.
func (s *MultiAgentServer) runBatch(ctx context.Context, req BatchQueryRequest) ([]BatchQueryReply, error) {
	replies := make([]BatchQueryReply, len(req.Hosts))
	bound := s.Parallelism
	if req.Parallel > 0 && (bound <= 0 || req.Parallel < bound) {
		bound = req.Parallel
	}
	var sem chan struct{}
	if bound > 0 {
		sem = make(chan struct{}, bound)
	}
	var wg sync.WaitGroup
	for i, h := range req.Hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					replies[i].Host = h
					replies[i].Error = ctx.Err().Error()
					return
				}
			}
			replies[i].Host = h
			t, ok := s.Targets[h]
			if !ok {
				replies[i].Error = fmt.Sprintf("rpc: host %v not served here", h)
				return
			}
			res, sc, sp, err := executeMeta(ctx, t, req.Query)
			if err != nil {
				replies[i].Error = err.Error()
				return
			}
			replies[i].Result = res
			replies[i].RecordsScanned = t.TIBSize()
			replies[i].SegmentsScanned = sc
			replies[i].SegmentsPruned = sp
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return replies, nil
}

// QueryMany implements controller.BatchTransport: hosts sharing a daemon
// URL ride one /batchquery round trip (the request carries `parallel` so
// the daemon's server-side fan-out honours the controller's bound), and
// lone hosts use plain per-host /query. At most `parallel` HTTP requests
// are outstanding at once (<= 0 means unlimited). Several hosts mapped
// to one single-agent daemon is reported as an error per slot. The
// context rides every HTTP request, so cancellation aborts in-flight
// round trips and the daemons' server-side fan-outs with them.
func (t *HTTPTransport) QueryMany(ctx context.Context, hosts []types.HostID, q query.Query, parallel int) ([]controller.BatchReply, error) {
	replies := make([]controller.BatchReply, len(hosts))
	type group struct {
		url string
		idx []int
	}
	byURL := make(map[string]int)
	var groups []group
	for i, h := range hosts {
		replies[i].Host = h
		base, ok := t.URLs[h]
		if !ok {
			replies[i].Err = fmt.Errorf("rpc: no URL for host %v", h)
			continue
		}
		gi, seen := byURL[base]
		if !seen {
			gi = len(groups)
			byURL[base] = gi
			groups = append(groups, group{url: base})
		}
		groups[gi].idx = append(groups[gi].idx, i)
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
		share = parallel / len(groups)
		if share < 1 {
			share = 1
		}
	}
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			t.queryGroup(ctx, g.url, hosts, g.idx, q, replies, sem, share)
		}(&groups[gi])
	}
	wg.Wait()
	return replies, nil
}

// queryGroup resolves all of one daemon's hosts, batching when possible.
// share is this group's slice of the caller's parallelism bound (0 =
// unlimited), forwarded to the daemon's server-side fan-out.
func (t *HTTPTransport) queryGroup(ctx context.Context, url string, hosts []types.HostID, idx []int, q query.Query, replies []controller.BatchReply, sem chan struct{}, share int) {
	single := func(i int) {
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				replies[i] = controller.BatchReply{Host: hosts[i], Err: ctx.Err()}
				return
			}
		}
		r, meta, err := t.Query(ctx, hosts[i], q)
		replies[i] = controller.BatchReply{Host: hosts[i], Result: r, Meta: meta, Err: err}
	}
	if len(idx) == 1 {
		single(idx[0])
		return
	}
	batch := make([]types.HostID, len(idx))
	for j, i := range idx {
		batch[j] = hosts[i]
	}
	resp, status, err := t.postBatch(ctx, url, BatchQueryRequest{Hosts: batch, Query: q, Parallel: share}, sem)
	if status == http.StatusNotFound || status == http.StatusMethodNotAllowed {
		// Only single-agent daemons lack /batchquery, and a single-agent
		// daemon answers /query for whichever one agent it wraps — it
		// cannot tell hosts apart. Falling back per-host here would
		// return that one agent's records once per requested host
		// (silently duplicated data), so fail loudly instead.
		err = fmt.Errorf("rpc: %s serves a single agent (no /batchquery) but %d hosts map to it — run a multi-host daemon (pathdumpd -hosts) or give each host its own URL", url, len(idx))
	}
	if err == nil && len(resp) != len(idx) {
		err = fmt.Errorf("rpc: %s/batchquery returned %d replies for %d hosts", url, len(resp), len(idx))
	}
	// Reply j must be host j's: merging a section under the requested
	// label without looking at the one it carries would file one host's
	// records under another's name.
	for j := 0; err == nil && j < len(resp); j++ {
		if resp[j].Host != batch[j] {
			err = fmt.Errorf("rpc: %s/batchquery reply %d is for host %v, asked for %v", url, j, resp[j].Host, batch[j])
		}
	}
	if err != nil {
		for j := range resp {
			query.PutRecordBuf(resp[j].Result.Records)
		}
		for _, i := range idx {
			replies[i].Err = err
		}
		return
	}
	for j, i := range idx {
		rep := &resp[j]
		out := controller.BatchReply{Host: hosts[i], Result: rep.Result, Meta: controller.QueryMeta{
			RecordsScanned:  rep.Meta.RecordsScanned,
			SegmentsScanned: rep.Meta.SegmentsScanned,
			SegmentsPruned:  rep.Meta.SegmentsPruned,
		}}
		if rep.Error != "" {
			out.Err = fmt.Errorf("rpc: host %v: %s", hosts[i], rep.Error)
		}
		replies[i] = out
	}
}

// postBatch issues one /batchquery round trip, holding a sem slot (nil =
// unlimited; the wait ends with ctx) for the request and the response
// decode. The HTTP status is reported so the caller can recognise
// single-agent daemons (404/405).
func (t *HTTPTransport) postBatch(ctx context.Context, base string, req BatchQueryRequest, sem chan struct{}) ([]wire.BatchReply, int, error) {
	if sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	resp, err := t.doPost(ctx, base, "/batchquery", req, true)
	if err != nil {
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		return nil, status, err
	}
	defer closeBody(resp)
	if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
		return nil, resp.StatusCode, &UnexpectedContentTypeError{URL: base + "/batchquery", ContentType: ct}
	}
	replies, err := wire.ReadBatch(resp.Body)
	return replies, resp.StatusCode, err
}
