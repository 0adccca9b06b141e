// Package rpc is the HTTP transport between the PathDump controller and
// host agents — the stand-in for the paper's Flask RESTful service (§3).
// AgentServer and MultiAgentServer expose the host API (one agent, or
// several co-located ones) from one shared handler set; HTTPTransport
// implements controller.Transport against a set of daemon base URLs;
// ControllerServer accepts agent alarms.
//
// The client speaks one encoding per plane: the data plane's /query and
// /batchquery bodies are PDW1 frames (internal/wire) and their replies
// come back as PDW1 frames; the control plane — install, uninstall,
// snapshots, alarms — is JSON. Servers follow the request — a JSON body
// decodes as JSON, a reply is JSON unless Accept offers the wire type —
// which is what curl and the docs' examples use.
//
// Endpoints (POST unless noted; {…} shows the JSON spelling):
//
//	agent:      /query      {host?, query}            → {result, records_scanned, segments_*}
//	            /batchquery {hosts, query, parallel?} → {replies} (multi-agent daemons only)
//	            /install    {host?, query, period}    → {id}
//	            /uninstall  {host?, id}               → {}
//	            /stats      (GET)                     → {hosts, records}
//	            /snapshot   (GET, ?host=N)            → block-framed TIB snapshot stream
//	controller: /alarm      {alarm}                   → {}
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
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

// Target is the host-side surface the servers expose: a controller.Host
// — the paper's execute plus the store counters a reply's telemetry is
// measured by — and the control plane: install/uninstall (Table 1) and
// snapshots. *agent.Agent and SnapshotTarget satisfy it. Every method is
// required — the servers never probe for a capability — so a wrapper
// embeds a Target and overrides only the methods it changes; the rest
// (streaming included) cannot be lost on the way. An op a target can
// never serve is an error wrapping query.ErrUnsupported, answered 501.
type Target interface {
	controller.Host
	// Install registers q to run every period (0 = per exported record)
	// and returns its ID. IDs start at 1; a target with no
	// installed-query engine, or none for q's op, returns 0 and the
	// servers answer 501.
	Install(q query.Query, period types.Time) int
	// Uninstall removes an installed query.
	Uninstall(id int) error
	// WriteSnapshot streams the whole TIB in the block-framed snapshot
	// format (tib.Store.Snapshot).
	WriteSnapshot(w io.Writer) error
}

// writeExecuteError maps a query-execution failure onto the right HTTP
// answer: a cancelled request writes nothing (the client hung up), an
// expired per-request deadline is 504, and everything else — notably
// query.ErrUnsupported — stays 501 Not Implemented.
func writeExecuteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		// Client gone; any body would be discarded.
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusNotImplemented)
	}
}

// errNoInstallEngine is what install answers when a target refuses the
// query (ID 0), and what uninstall answers at a snapshot target.
var errNoInstallEngine = errors.New("rpc: no installed-query engine for this query (snapshot targets run none; agents run conformance and poor_tcp only)")

// SnapshotTarget serves a bare TIB — a store loaded from a snapshot with
// no live agent behind it. Ops needing the agent's runtime (the active
// TCP monitor behind getPoorTCPFlows) report query.ErrUnsupported, and
// there is no installed-query engine.
type SnapshotTarget struct{ Store *tib.Store }

// ExecuteContext implements Target: snapshot scans poll the request
// context and abort once the caller is gone.
func (t SnapshotTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	return query.ExecuteContext(ctx, q, query.StoreView{S: t.Store})
}

// Install implements Target; snapshots accept no installed queries, so
// it returns the no-engine ID 0.
func (t SnapshotTarget) Install(query.Query, types.Time) int { return 0 }

// Uninstall implements Target.
func (t SnapshotTarget) Uninstall(int) error { return errNoInstallEngine }

// TIBSize implements Target.
func (t SnapshotTarget) TIBSize() int { return t.Store.Len() }

// SegmentStats implements Target.
func (t SnapshotTarget) SegmentStats() (scanned, pruned uint64) { return t.Store.SegmentStats() }

// ColdLoads implements Target.
func (t SnapshotTarget) ColdLoads() uint64 { return t.Store.ColdLoads() }

// WriteSnapshot implements Target: a restored store can be
// re-snapshotted (snapshot relays).
func (t SnapshotTarget) WriteSnapshot(w io.Writer) error { return t.Store.Snapshot(w) }

// QueryRequest is the /query body. Host picks the agent at a
// MultiAgentServer (optional there only when it serves exactly one);
// an AgentServer ignores it.
type QueryRequest struct {
	Host  *types.HostID `json:"host,omitempty"`
	Query query.Query   `json:"query"`
}

// QueryResponse is the /query reply's JSON spelling: the result and the
// host's measured telemetry, whose JSON spelling leaves out the cold
// loads and the scan time the wire frame's Meta also carries.
type QueryResponse struct {
	Result query.Result `json:"result"`
	query.Meta
}

// InstallRequest is the /install body; Period is virtual nanoseconds.
type InstallRequest struct {
	Host   *types.HostID `json:"host,omitempty"`
	Query  query.Query   `json:"query"`
	Period types.Time    `json:"period"`
}

// InstallResponse is the /install reply.
type InstallResponse struct {
	ID int `json:"id"`
}

// UninstallRequest is the /uninstall body.
type UninstallRequest struct {
	Host *types.HostID `json:"host,omitempty"`
	ID   int           `json:"id"`
}

// BatchQueryRequest is the /batchquery body: one query fanned out to
// several co-located hosts in a single round trip. Parallel carries the
// caller's concurrency bound so the daemon's server-side fan-out honours
// the controller's Parallelism knob (<= 0 defers to the daemon's own
// limit).
type BatchQueryRequest struct {
	Hosts    []types.HostID `json:"hosts"`
	Query    query.Query    `json:"query"`
	Parallel int            `json:"parallel,omitempty"`
}

// BatchQueryResponse is the /batchquery reply, aligned with request hosts.
type BatchQueryResponse struct {
	Replies []wire.BatchReply `json:"replies"`
}

// AlarmRequest is the controller's /alarm body.
type AlarmRequest struct {
	Alarm types.Alarm `json:"alarm"`
}

// AgentServer serves one agent's host API. It answers for T whatever
// host a request names — it cannot tell hosts apart — and so mounts no
// /batchquery. Install/uninstall handlers are serialised: agent installs
// register timers on the agent's simulator, whose event heap is not safe
// for concurrent mutation.
type AgentServer struct {
	T Target

	// MaxBodyBytes caps request bodies (<= 0 = DefaultMaxBody).
	MaxBodyBytes int64
	// Obs mounts the server's observability surface — /metrics,
	// /healthz override, optional pprof — and instruments every
	// endpoint (nil = uninstrumented; /healthz is served regardless).
	Obs *ServerObs

	instMu sync.Mutex
}

// Handler returns the agent's HTTP mux.
func (s *AgentServer) Handler() http.Handler {
	api := hostAPI{
		resolve: func(*types.HostID) (Target, error) { return s.T, nil },
		targets: []Target{s.T},
		maxBody: s.MaxBodyBytes,
		obs:     s.Obs,
		instMu:  &s.instMu,
	}
	return api.mux()
}

// hostAPI is the one handler set behind both server types: they differ
// only in how a request's host field finds its target.
type hostAPI struct {
	// resolve maps a request's host field (nil = absent) to the target
	// that serves it; an error is answered 404.
	resolve func(*types.HostID) (Target, error)
	// targets is every served target (for /stats and /healthz).
	targets []Target
	maxBody int64
	obs     *ServerObs
	// instMu serialises install/uninstall across the server's targets.
	instMu *sync.Mutex
	// snapErrs counts snapshot streams that failed mid-body.
	snapErrs *obs.Counter
}

// records totals the served targets' resident records.
func (a *hostAPI) records() (n int) {
	for _, t := range a.targets {
		n += t.TIBSize()
	}
	return n
}

// mux registers /query, /install, /uninstall, /snapshot, /stats and the
// observability endpoints. Every body is fully decoded before its
// handler has any side effect.
func (a *hostAPI) mux() *http.ServeMux {
	a.snapErrs = a.obs.snapshotErrors()
	mux := http.NewServeMux()
	mux.HandleFunc("/query", a.obs.wrap("query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decode(w, r, &req, a.maxBody) {
			return
		}
		t, err := a.resolve(req.Host)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if req.Query.Op == query.OpRecords && wire.Accepted(r.Header.Get("Accept")) {
			streamQueryResponse(w, r, t, req.Query)
			return
		}
		res, m, err := controller.Evaluate(r.Context(), t, req.Query, nil)
		if err != nil {
			writeExecuteError(w, err)
			return
		}
		writeQueryResponse(w, r, m, &res)
		query.PutResultBufs(&res)
	}))
	mux.HandleFunc("/install", a.obs.wrap("install", func(w http.ResponseWriter, r *http.Request) {
		var req InstallRequest
		if !decode(w, r, &req, a.maxBody) {
			return
		}
		t, err := a.resolve(req.Host)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		a.instMu.Lock()
		id := t.Install(req.Query, req.Period)
		a.instMu.Unlock()
		if id == 0 {
			http.Error(w, errNoInstallEngine.Error(), http.StatusNotImplemented)
			return
		}
		encode(w, InstallResponse{ID: id})
	}))
	mux.HandleFunc("/uninstall", a.obs.wrap("uninstall", func(w http.ResponseWriter, r *http.Request) {
		var req UninstallRequest
		if !decode(w, r, &req, a.maxBody) {
			return
		}
		t, err := a.resolve(req.Host)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		a.instMu.Lock()
		err = t.Uninstall(req.ID)
		a.instMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		encode(w, struct{}{})
	}))
	mux.HandleFunc("/snapshot", a.obs.wrap("snapshot", a.snapshot))
	mux.HandleFunc("/stats", a.obs.wrap("stats", func(w http.ResponseWriter, r *http.Request) {
		encode(w, map[string]int{"records": a.records(), "hosts": len(a.targets)})
	}))
	mountObs(mux, a.obs, func() HealthStatus {
		return HealthStatus{Status: "ok", Hosts: len(a.targets), Records: a.records()}
	})
	return mux
}

// ControllerServer accepts alarms from remote agents.
type ControllerServer struct {
	C *controller.Controller

	// MaxBodyBytes caps request bodies (<= 0 = DefaultMaxBody).
	MaxBodyBytes int64
	// Obs mounts the server's observability surface — /metrics,
	// /healthz override, optional pprof, /slowlog — and instruments
	// every endpoint (nil = uninstrumented; /healthz is served
	// regardless).
	Obs *ServerObs
}

// Handler returns the controller's HTTP mux. Alarm dispatch runs under
// the request context: an agent that hung up (or whose POST deadline
// expired) stops the handler chain instead of dispatching into the void.
// Beyond alarm ingest (/alarm), the mux serves the continuous-monitoring
// read side: the filterable bounded history (GET /alarms) and the live
// SSE feed (GET /alarms/stream) — see alarms.go.
func (s *ControllerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/alarm", s.Obs.wrap("alarm", func(w http.ResponseWriter, r *http.Request) {
		var req AlarmRequest
		if !decode(w, r, &req, s.MaxBodyBytes) {
			return
		}
		s.C.RaiseAlarmContext(r.Context(), req.Alarm)
		encode(w, struct{}{})
	}))
	mux.HandleFunc("/alarms", s.Obs.wrap("alarms", s.handleAlarms))
	mux.HandleFunc("/alarms/stream", s.Obs.wrap("alarms_stream", s.handleAlarmStream))
	mountObs(mux, s.Obs, func() HealthStatus {
		return HealthStatus{Status: "ok"}
	})
	return mux
}

// DefaultAlarmTimeout bounds each alarm POST when RaiseAlarm is called
// without a caller context: alarms are advisory and the monitor fires
// again, so a wedged controller must cost the agent a few seconds of one
// goroutine, never a goroutine forever.
const DefaultAlarmTimeout = 5 * time.Second

// AlarmClient forwards agent alarms to a controller URL; it implements
// agent.AlarmSink.
type AlarmClient struct {
	URL    string
	Client *http.Client
	// Timeout bounds each contextless RaiseAlarm POST
	// (default DefaultAlarmTimeout).
	Timeout time.Duration

	// dropped counts alarms that never reached the controller (marshal
	// failure, transport failure, or a non-2xx answer). Alarms stay
	// fire-and-forget — the monitor fires again — but the losses used to
	// be invisible, which made a misconfigured controller URL look like a
	// healthy, quiet network.
	dropped atomic.Uint64
	// turn admits one POST at a time (see RaiseAlarmContext).
	turn sync.Mutex
}

// Dropped reports how many alarms this client failed to deliver.
func (c *AlarmClient) Dropped() uint64 { return c.dropped.Load() }

// RaiseAlarm posts the alarm under the client's own bounded context;
// delivery failures are counted in Dropped (alarms are advisory, the
// monitor will fire again).
func (c *AlarmClient) RaiseAlarm(a types.Alarm) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultAlarmTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c.RaiseAlarmContext(ctx, a)
}

// RaiseAlarmContext posts the alarm under the caller's context — a
// daemon passes its lifetime context so shutdown (or the context's
// deadline) aborts the dial, the in-flight request and the response read
// instead of leaking the goroutine against a wedged controller. Every
// failure — including a non-2xx answer from the controller, previously
// ignored — is returned and counted in Dropped.
//
// Raises through one client take turns, so they share one keep-alive
// connection. Otherwise a burst of alarms raised at once, each from its
// own goroutine, would open a connection per alarm in flight, and each
// would sit idle at both ends, buffers and goroutines included, until
// the transport's idle timeout. A raise whose context ends while it
// waits behind a wedged POST fails as soon as its turn comes.
func (c *AlarmClient) RaiseAlarmContext(ctx context.Context, a types.Alarm) error {
	body, err := json.Marshal(AlarmRequest{Alarm: a})
	if err != nil {
		c.dropped.Add(1)
		return fmt.Errorf("rpc: marshalling alarm: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/alarm", bytes.NewReader(body))
	if err != nil {
		c.dropped.Add(1)
		return fmt.Errorf("rpc: building alarm request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	c.turn.Lock()
	defer c.turn.Unlock()
	resp, err := c.client().Do(req)
	if err != nil {
		c.dropped.Add(1)
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.dropped.Add(1)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{Code: resp.StatusCode, URL: c.URL + "/alarm", Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	return nil
}

func (c *AlarmClient) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return DefaultClient
}

// HTTPTransport implements controller.Transport over per-host agent URLs.
// Each request type has exactly one encoding, chosen by the type alone:
// query and batch bodies and replies are PDW1 frames (internal/wire),
// everything else is JSON. Nothing is probed, retried in another
// encoding, or remembered per daemon: a daemon that rejects a body is a
// *StatusError after one request, and a query reply in the wrong encoding
// is an *UnexpectedContentTypeError.
//
// The data plane — /query and /batchquery — rides the transport's own
// keep-alive HTTP/1.1 connections (dataplane.go), which take plain
// http:// URLs only and ignore proxy variables; Client (DefaultClient when
// nil) serves the control plane: install, uninstall and snapshot pulls.
type HTTPTransport struct {
	URLs   map[types.HostID]string
	Client *http.Client

	dp dataPlane
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return DefaultClient
}

// CloseIdleConnections closes the data plane's pooled connections and
// the control-plane client's idle ones.
func (t *HTTPTransport) CloseIdleConnections() {
	t.dp.closeIdle()
	t.client().CloseIdleConnections()
}

// post sends a control-plane request (install, uninstall) to host's
// daemon and decodes the JSON reply into out.
func (t *HTTPTransport) post(ctx context.Context, host types.HostID, path string, in, out interface{}) error {
	base, ok := t.URLs[host]
	if !ok {
		return fmt.Errorf("rpc: no URL for host %v", host)
	}
	resp, err := t.doPost(ctx, base, path, in)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	// No wire reply was offered, so one means the server ignored the
	// negotiation; name the mismatch instead of feeding frame bytes to
	// the JSON decoder, whose "invalid character" noise would hide it.
	if ct := resp.Header.Get("Content-Type"); wire.IsWire(ct) {
		return &UnexpectedContentTypeError{URL: base + path, ContentType: ct}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// reqBufs pools request-encode buffers: every POST borrows one for its
// body (wire frame or JSON) instead of allocating, and releases it once
// the round trip is over. Buffers that grew past a megabyte are dropped
// rather than pinned.
var reqBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledReqBuf = 1 << 20

func getReqBuf() *bytes.Buffer {
	buf := reqBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putReqBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledReqBuf {
		return
	}
	reqBufs.Put(buf)
}

// doPost issues one control-plane POST, its body JSON, through the
// net/http client — exactly one: there is no retry in another encoding —
// and returns the raw 200 response, body unread. The request carries ctx
// (http.NewRequestWithContext), so cancelling it aborts the dial, the
// in-flight request, and the response read. A non-200 answer closes the
// body and surfaces as *StatusError.
func (t *HTTPTransport) doPost(ctx context.Context, base, path string, in interface{}) (*http.Response, error) {
	buf := getReqBuf()
	defer putReqBuf(buf)
	if err := json.NewEncoder(buf).Encode(in); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, URL: base + path, Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	return resp, nil
}

// closeBody drains a bounded remainder and closes, so the pooled
// connection is reusable instead of being torn down mid-body.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// UnexpectedContentTypeError reports a reply in an encoding the call
// does not decode: a wire frame answering an install or uninstall, or
// anything but a wire frame answering a query or batch. It names the
// encoding so the mismatch is diagnosable, where feeding the bytes to the
// other decoder would fail with a garbled syntax error.
type UnexpectedContentTypeError struct {
	URL         string
	ContentType string
}

// Error implements error.
func (e *UnexpectedContentTypeError) Error() string {
	return fmt.Sprintf("rpc: %s answered unexpected content type %q", e.URL, e.ContentType)
}

// Query implements controller.Transport over the data plane. The reply
// decodes chunk by chunk, in place, into one buffer from the record pool,
// so decode work overlaps a streaming daemon's scan and arrival on the
// network instead of waiting for the frame's last byte; the controller
// recycles the buffer once the merge has folded it in.
func (t *HTTPTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, controller.QueryMeta, error) {
	base, ok := t.URLs[host]
	if !ok {
		return query.Result{}, controller.QueryMeta{}, fmt.Errorf("rpc: no URL for host %v", host)
	}
	buf := getReqBuf()
	defer putReqBuf(buf)
	if err := wire.WriteQueryRequest(buf, &host, &q); err != nil {
		return query.Result{}, controller.QueryMeta{}, err
	}
	var res query.Result
	var meta controller.QueryMeta
	err := t.dp.roundTrip(ctx, base, "/query", buf.Bytes(), func(r *reply) error {
		m, out, err := wire.ReadQuery(r)
		if err != nil {
			return err
		}
		res, meta = *out, m
		return nil
	})
	if err != nil {
		query.PutResultBufs(&res)
		return query.Result{}, controller.QueryMeta{}, err
	}
	return res, meta, nil
}

// Install implements controller.Transport.
func (t *HTTPTransport) Install(ctx context.Context, host types.HostID, q query.Query, period types.Time) (int, error) {
	var resp InstallResponse
	if err := t.post(ctx, host, "/install", InstallRequest{Host: &host, Query: q, Period: period}, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Uninstall implements controller.Transport.
func (t *HTTPTransport) Uninstall(ctx context.Context, host types.HostID, id int) error {
	var out struct{}
	return t.post(ctx, host, "/uninstall", UninstallRequest{Host: &host, ID: id}, &out)
}

// snapshot is the GET /snapshot handler: ?host=N names the target (as
// the host field does on the POST endpoints). The whole store's snapshot
// streams straight from its consistent capture to the socket — ingest
// continues while it is written.
func (a *hostAPI) snapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	params := r.URL.Query()
	var host *types.HostID
	if raw := params.Get("host"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, "rpc: /snapshot ?host must be a host ID", http.StatusBadRequest)
			return
		}
		h := types.HostID(n)
		host = &h
	}
	t, err := a.resolve(host)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := t.WriteSnapshot(w); err != nil {
		// The status line is committed once bytes flow, so the puller
		// sees only a truncated body — which its loader rejects (no
		// terminator) without touching the store it would have replaced.
		// Make the failure visible on this side too.
		a.snapErrs.Inc()
		log.Printf("rpc: /snapshot host=%q failed mid-stream: %v", params.Get("host"), err)
	}
}

// PullSnapshot captures one host's TIB from a live daemon: GET
// /snapshot, streamed into w — a full snapshot, which tib.ReadSnapshot
// restores. The byte count written is returned; a non-200 answer
// surfaces as a *StatusError.
func (t *HTTPTransport) PullSnapshot(ctx context.Context, host types.HostID, w io.Writer) (int64, error) {
	base, ok := t.URLs[host]
	if !ok {
		return 0, fmt.Errorf("rpc: no URL for host %v", host)
	}
	url := fmt.Sprintf("%s/snapshot?host=%d", base, uint32(host))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, &StatusError{Code: resp.StatusCode, URL: base + "/snapshot", Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	return io.Copy(w, resp.Body)
}

// StatusError is a non-2xx HTTP answer from an agent or daemon: the
// server spoke, authoritatively — as opposed to a transport-level
// failure (dial refused, connection reset) where nothing answered at
// all. The controller's retry policy keys off the distinction via the
// HTTPStatus method: status errors are never retried.
type StatusError struct {
	Code   int
	URL    string
	Status string
	Msg    string
}

// Error formats like the transport's historic error strings (callers
// grep for the status code).
func (e *StatusError) Error() string {
	return fmt.Sprintf("rpc: %s: %s: %s", e.URL, e.Status, e.Msg)
}

// HTTPStatus reports the response code (see controller's retry policy).
func (e *StatusError) HTTPStatus() int { return e.Code }

// DefaultMaxBody caps request bodies when a server does not configure its
// own limit. Batch installs against many hosts can legitimately exceed it;
// such deployments raise the server's MaxBodyBytes (pathdumpd -max-body).
const DefaultMaxBody = 16 << 20

// decode parses a request body capped at limit bytes (<= 0 means
// DefaultMaxBody), following the request: a body marked with the wire
// Content-Type decodes through the binary request frames, anything else
// decodes as JSON. An over-limit body answers 413 with an explicit
// message; it used to surface as a baffling 400 "unexpected EOF" when the
// cap was a bare io.LimitReader silently truncating the stream.
func decode(w http.ResponseWriter, r *http.Request, v interface{}, limit int64) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	var err error
	if wire.IsWire(r.Header.Get("Content-Type")) {
		err = decodeWireRequest(body, v)
	} else {
		err = json.NewDecoder(body).Decode(v)
	}
	if err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// errWireEndpoint marks a wire-encoded body posted to an endpoint that
// has no binary request frame (the control plane: installs, uninstalls,
// alarms); decode answers 415.
var errWireEndpoint = errors.New("rpc: endpoint does not accept wire-encoded requests")

// decodeWireRequest maps the handler's request struct onto its wire frame
// decoder. Decoding fails before any handler side effect.
func decodeWireRequest(body io.Reader, v interface{}) error {
	switch req := v.(type) {
	case *QueryRequest:
		host, q, err := wire.ReadQueryRequest(body)
		if err != nil {
			return err
		}
		req.Host, req.Query = host, q
	case *BatchQueryRequest:
		hosts, q, parallel, err := wire.ReadBatchRequest(body)
		if err != nil {
			return err
		}
		req.Hosts, req.Query, req.Parallel = hosts, q, parallel
	default:
		return errWireEndpoint
	}
	return nil
}

// writeDecodeError maps a request-decode failure onto its status: 413 for
// an over-limit body, 415 for a wire body on a JSON-only endpoint, 400
// otherwise.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		http.Error(w, fmt.Sprintf("request body exceeds the %d-byte limit; raise the server's max body size (-max-body)", mbe.Limit), http.StatusRequestEntityTooLarge)
	case errors.Is(err, errWireEndpoint):
		http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
	default:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
}

// encode writes a JSON response. Marshalling happens before the first
// byte reaches the wire: encoding straight into w meant a late failure
// called http.Error mid-body, corrupting the payload with a trailing
// error message under a 200 status ("superfluous response.WriteHeader").
func encode(w http.ResponseWriter, v interface{}) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "rpc: encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	w.Write([]byte{'\n'})
}

// writeQueryResponse answers /query in whichever encoding the request
// negotiated: the binary wire format, Meta and all, when the client
// offered it, JSON otherwise. The wire path streams columns straight to
// the socket instead of buffering the whole reply. Once the first body
// byte is out the status line is committed, so a mid-stream write failure
// just truncates the frame — the client-side decoder rejects truncated
// frames explicitly.
func writeQueryResponse(w http.ResponseWriter, r *http.Request, m wire.Meta, res *query.Result) {
	if !wire.Accepted(r.Header.Get("Accept")) {
		encode(w, QueryResponse{Result: *res, Meta: m})
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	_ = wire.WriteQuery(w, m, res, false)
}

// writeBatchResponse is writeQueryResponse for /batchquery: n sections,
// pulled in order from next (see batchWindow.next). Each section goes out
// as it arrives; a nil one cuts the frame short, which its reader rejects.
// The JSON spelling is built from the same pull only for a client that did
// not offer the wire encoding (curl): each section is marshalled as it
// arrives, so the window still holds at most W answers, but no byte is
// written before the last one, so a failure is the whole request's.
func writeBatchResponse(w http.ResponseWriter, r *http.Request, n int, next func(i int) *wire.BatchReply) {
	if wire.Accepted(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", wire.ContentType)
		_ = wire.WriteBatchEach(w, n, next)
		return
	}
	buf := []byte(`{"replies":[`)
	for i := range n {
		rep := next(i)
		if rep == nil {
			writeExecuteError(w, r.Context().Err())
			return
		}
		sec, err := json.Marshal(rep)
		if err != nil {
			http.Error(w, "rpc: encoding response: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, sec...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(buf, "]}\n"...))
}
