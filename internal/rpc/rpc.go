// Package rpc is the HTTP/JSON transport between the PathDump controller
// and host agents — the stand-in for the paper's Flask RESTful service
// (§3). An AgentServer exposes one agent's query/install/uninstall
// endpoints; HTTPTransport implements controller.Transport against a set
// of agent base URLs; ControllerServer accepts agent alarms.
//
// Endpoints (all JSON over POST unless noted):
//
//	agent:      /query      {query}          → {result, records_scanned, segments_*}
//	            /install    {query, period}  → {id}
//	            /uninstall  {id}             → {}
//	            /stats      (GET)            → {records, packets, invalid}
//	            /snapshot   (GET, ?host=N)   → segment-wise TIB snapshot stream
//	controller: /alarm      {alarm}          → {}
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Target is the agent-side surface the server exposes; *agent.Agent
// satisfies it.
type Target interface {
	Execute(q query.Query) query.Result
	Install(q query.Query, period types.Time) int
	Uninstall(id int) error
	TIBSize() int
}

// TargetE is an optional Target extension for backends that cannot serve
// every op (a snapshot-backed store has no TCP monitor): ExecuteE
// distinguishes "unsupported here" from "no matching data", and servers
// answer 501 Not Implemented instead of a silently empty result.
type TargetE interface {
	ExecuteE(q query.Query) (query.Result, error)
}

// ContextTarget is an optional Target extension for backends whose query
// evaluation can abort mid-scan (*agent.Agent polls cancellation between
// merged TIB shard records). Servers prefer it, passing the request
// context, so a disconnected client or expired deadline releases the
// host promptly instead of finishing a pointless scan.
type ContextTarget interface {
	ExecuteContext(ctx context.Context, q query.Query) (query.Result, error)
}

// InstallerE is an optional Target extension for backends without an
// installed-query engine: servers answer 501 instead of fabricating an
// installation ID.
type InstallerE interface {
	InstallE(q query.Query, period types.Time) (int, error)
}

// Snapshotter is an optional Target extension for backends that can
// stream their TIB in the segment-wise snapshot format; servers expose it
// as GET /snapshot, and pathdumpctl -pull-snapshot captures it from a
// live daemon for offline analysis.
type Snapshotter interface {
	WriteSnapshot(w io.Writer) error
}

// IncrementalSnapshotter is an optional Target extension for backends
// that can serve delta snapshots: only the records with arrival
// sequence greater than since, Since set in the stream header (or a full
// snapshot when the watermark cannot be served — the receiver detects
// which from the stream header). Servers expose it as GET
// /snapshot?since_seq=N; a standby catches up by applying the stream
// with tib.ApplyIncremental.
type IncrementalSnapshotter interface {
	WriteSnapshotSince(w io.Writer, since uint64) error
}

// SegmentStatser is an optional Target extension reporting the backing
// store's cumulative segment telemetry (partitions scanned versus pruned
// by time bounds); servers attribute per-query deltas onto the wire for
// the controller's ExecStats and cost model.
type SegmentStatser interface {
	SegmentStats() (scanned, pruned uint64)
}

// executeMeta runs a query like execute and additionally attributes the
// target's segment telemetry to it by delta. Queries racing on one
// target may swap shares — the counts feed modelled stats, not
// correctness.
func executeMeta(ctx context.Context, t Target, q query.Query) (res query.Result, segScanned, segPruned int, err error) {
	ss, ok := t.(SegmentStatser)
	var sc0, sp0 uint64
	if ok {
		sc0, sp0 = ss.SegmentStats()
	}
	res, err = execute(ctx, t, q)
	if err == nil && ok {
		sc1, sp1 := ss.SegmentStats()
		segScanned, segPruned = int(sc1-sc0), int(sp1-sp0)
	}
	return res, segScanned, segPruned, err
}

// execute runs a query on a target under the request context, using the
// most capable path the target provides.
func execute(ctx context.Context, t Target, q query.Query) (query.Result, error) {
	if err := ctx.Err(); err != nil {
		return query.Result{}, err
	}
	if tc, ok := t.(ContextTarget); ok {
		return tc.ExecuteContext(ctx, q)
	}
	if te, ok := t.(TargetE); ok {
		return te.ExecuteE(q)
	}
	return t.Execute(q), nil
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

// install registers a query on a target, using the explicit-error path
// when the target provides one.
func install(t Target, q query.Query, period types.Time) (int, error) {
	if te, ok := t.(InstallerE); ok {
		return te.InstallE(q, period)
	}
	return t.Install(q, period), nil
}

// SnapshotTarget serves a bare TIB — a store loaded from a snapshot with
// no live agent behind it. Ops needing the agent's runtime (the active
// TCP monitor behind getPoorTCPFlows) report query.ErrUnsupported, and
// there is no installed-query engine.
type SnapshotTarget struct{ Store *tib.Store }

func (t SnapshotTarget) view() query.StoreView { return query.StoreView{S: t.Store} }

// Execute implements Target (unsupported ops yield empty results; the
// servers prefer ExecuteE).
func (t SnapshotTarget) Execute(q query.Query) query.Result { return query.Execute(q, t.view()) }

// ExecuteE implements TargetE.
func (t SnapshotTarget) ExecuteE(q query.Query) (query.Result, error) {
	return query.ExecuteE(q, t.view())
}

// ExecuteContext implements ContextTarget: snapshot scans poll the
// request context and abort once the caller is gone.
func (t SnapshotTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	return query.ExecuteContext(ctx, q, t.view())
}

// Install implements Target; snapshots accept no installed queries, so
// the returned ID is never valid for Uninstall. Servers use InstallE and
// answer 501 instead.
func (t SnapshotTarget) Install(query.Query, types.Time) int { return -1 }

// InstallE implements InstallerE.
func (t SnapshotTarget) InstallE(query.Query, types.Time) (int, error) {
	return 0, errors.New("rpc: snapshot target has no installed-query engine")
}

// Uninstall implements Target.
func (t SnapshotTarget) Uninstall(int) error {
	return errors.New("rpc: snapshot target has no installed-query engine")
}

// TIBSize implements Target.
func (t SnapshotTarget) TIBSize() int { return t.Store.Len() }

// SegmentStats implements SegmentStatser.
func (t SnapshotTarget) SegmentStats() (scanned, pruned uint64) { return t.Store.SegmentStats() }

// ColdStats implements ColdStatser: traced scans attribute the cold-tier
// demand loads they trigger.
func (t SnapshotTarget) ColdStats() tib.ColdStats { return t.Store.ColdStats() }

// WriteSnapshot implements Snapshotter: a restored store can be
// re-snapshotted and served onward.
func (t SnapshotTarget) WriteSnapshot(w io.Writer) error { return t.Store.Snapshot(w) }

// WriteSnapshotSince implements IncrementalSnapshotter: a restored
// store can serve deltas onward (snapshot relays, warm standbys).
func (t SnapshotTarget) WriteSnapshotSince(w io.Writer, since uint64) error {
	return t.Store.SnapshotSince(w, since)
}

// QueryRequest is the /query body. Host is required by multi-host
// daemons (MultiAgentServer) to pick the agent; single-agent servers
// ignore it.
type QueryRequest struct {
	Host  *types.HostID `json:"host,omitempty"`
	Query query.Query   `json:"query"`
}

// QueryResponse is the /query reply. SegmentsScanned/SegmentsPruned
// carry the host store's partition telemetry for this query (§5.2
// pruned-fraction cost term).
type QueryResponse struct {
	Result          query.Result `json:"result"`
	RecordsScanned  int          `json:"records_scanned"`
	SegmentsScanned int          `json:"segments_scanned,omitempty"`
	SegmentsPruned  int          `json:"segments_pruned,omitempty"`
	// Span is the agent-side scan span for traced requests (the
	// request carried a TraceHeader). Wire-encoded replies move it in
	// the SpanHeader response header instead of the body.
	Span *obs.Span `json:"span,omitempty"`
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

// BatchQueryReply is one host's slot in a /batchquery response.
type BatchQueryReply struct {
	Host            types.HostID `json:"host"`
	Result          query.Result `json:"result"`
	RecordsScanned  int          `json:"records_scanned"`
	SegmentsScanned int          `json:"segments_scanned,omitempty"`
	SegmentsPruned  int          `json:"segments_pruned,omitempty"`
	Error           string       `json:"error,omitempty"`
}

// BatchQueryResponse is the /batchquery reply, aligned with request hosts.
type BatchQueryResponse struct {
	Replies []BatchQueryReply `json:"replies"`
}

// AlarmRequest is the controller's /alarm body.
type AlarmRequest struct {
	Alarm types.Alarm `json:"alarm"`
}

// AgentServer serves one agent's host API. Install/uninstall handlers
// are serialised: agent installs register timers on the agent's
// simulator, whose event heap is not safe for concurrent mutation.
type AgentServer struct {
	T Target

	// MaxBodyBytes caps request bodies (<= 0 = DefaultMaxBody).
	MaxBodyBytes int64
	// DisableWire forces JSON responses even for clients that offer the
	// binary wire encoding, and rejects wire-encoded request bodies with
	// 415 so clients fall back to JSON (mixed-version testing).
	DisableWire bool
	// WireCompress flate-compresses wire-encoded responses.
	WireCompress bool
	// Obs mounts the server's observability surface — /metrics,
	// /healthz override, optional pprof — and instruments every
	// endpoint (nil = uninstrumented; /healthz is served regardless).
	Obs *ServerObs

	instMu sync.Mutex
}

// Handler returns the agent's HTTP mux.
func (s *AgentServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.Obs.wrap("query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decode(w, r, &req, s.MaxBodyBytes, s.DisableWire) {
			return
		}
		if streamQueryResponse(w, r, s.T, req.Query, s.DisableWire, s.WireCompress) {
			return
		}
		span, cold0 := traceScan(r, s.T)
		res, sc, sp, err := executeMeta(r.Context(), s.T, req.Query)
		if err != nil {
			writeExecuteError(w, err)
			return
		}
		finishScan(span, s.T, sc, sp, cold0)
		writeQueryResponse(w, r, s.DisableWire, s.WireCompress,
			QueryResponse{Result: res, RecordsScanned: s.T.TIBSize(), SegmentsScanned: sc, SegmentsPruned: sp, Span: span})
		query.PutRecordBuf(res.Records)
	}))
	mux.HandleFunc("/snapshot", s.Obs.wrap("snapshot", snapshotHandler(func(*http.Request) (Target, error) { return s.T, nil })))
	mux.HandleFunc("/install", s.Obs.wrap("install", func(w http.ResponseWriter, r *http.Request) {
		var req InstallRequest
		if !decode(w, r, &req, s.MaxBodyBytes, s.DisableWire) {
			return
		}
		s.instMu.Lock()
		id, err := install(s.T, req.Query, req.Period)
		s.instMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotImplemented)
			return
		}
		encode(w, InstallResponse{ID: id})
	}))
	mux.HandleFunc("/uninstall", s.Obs.wrap("uninstall", func(w http.ResponseWriter, r *http.Request) {
		var req UninstallRequest
		if !decode(w, r, &req, s.MaxBodyBytes, s.DisableWire) {
			return
		}
		s.instMu.Lock()
		err := s.T.Uninstall(req.ID)
		s.instMu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		encode(w, struct{}{})
	}))
	mux.HandleFunc("/stats", s.Obs.wrap("stats", func(w http.ResponseWriter, r *http.Request) {
		encode(w, map[string]int{"records": s.T.TIBSize()})
	}))
	mountObs(mux, s.Obs, func() HealthStatus {
		return HealthStatus{Status: "ok", Hosts: 1, Records: s.T.TIBSize()}
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
		if !decode(w, r, &req, s.MaxBodyBytes, false) {
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
// Both directions are negotiated: unless JSONOnly is set, requests offer
// the binary wire encoding (internal/wire) in Accept and the decoder
// follows the response Content-Type, so daemons that predate the wire
// format keep answering JSON and everything still works. Query, batch and
// install request bodies travel wire-encoded too; a daemon that rejects
// one (415 from a daemon with wire requests disabled, 400 from one that
// predates them and choked JSON-parsing the frame) gets that request
// retried as JSON — safe, servers decode before any side effect — and is
// remembered, so later requests to that base URL go straight to JSON.
type HTTPTransport struct {
	URLs   map[types.HostID]string
	Client *http.Client
	// JSONOnly suppresses the wire format in both directions: JSON
	// request bodies and no wire Accept offer (mixed-version testing,
	// debugging with readable bodies).
	JSONOnly bool
	// JSONRequests forces JSON request bodies while still accepting
	// wire-encoded responses (request-side mixed-version testing).
	JSONRequests bool

	// jsonReq remembers base URLs whose daemons rejected a wire-encoded
	// request body; keys are base URLs, values are unused.
	jsonReq sync.Map
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return DefaultClient
}

func (t *HTTPTransport) post(ctx context.Context, host types.HostID, path string, in, out interface{}) error {
	base, ok := t.URLs[host]
	if !ok {
		return fmt.Errorf("rpc: no URL for host %v", host)
	}
	_, err := t.postStatus(ctx, base, path, in, out, nil)
	return err
}

// acquire takes one slot of sem (nil = unlimited), abandoning the wait if
// ctx ends first. The returned release must be called once.
func acquire(ctx context.Context, sem chan struct{}) (release func(), err error) {
	if sem == nil {
		return func() {}, nil
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// reqBufs pools request-encode buffers: every POST borrows one for its
// body (wire frame or JSON) instead of allocating, and releases it once
// the round trip's Do returns. Buffers that grew past a megabyte are
// dropped rather than pinned.
var reqBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledReqBuf = 1 << 20

func putReqBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledReqBuf {
		return
	}
	buf.Reset()
	reqBufs.Put(buf)
}

// doPost issues one POST and returns the raw 200 response, body unread,
// so callers pick the decoder the response Content-Type calls for. With
// acceptWire the request offers the binary wire encoding for the
// response. The request body itself is wire-encoded when the request
// type has a frame and the transport (and the daemon, per the fallback
// cache) allows it; a daemon that rejects the frame gets one transparent
// JSON retry and is remembered. A non-200 answer closes the body and
// surfaces as *StatusError (the response is still returned for its
// status code).
func (t *HTTPTransport) doPost(ctx context.Context, base, path string, in interface{}, acceptWire bool) (*http.Response, error) {
	if t.wireRequestEligible(base, in) {
		resp, err := t.doPostOnce(ctx, base, path, in, acceptWire, true)
		if !wireRequestRejected(err) {
			return resp, err
		}
		// The daemon spoke, authoritatively, before any side effect: it
		// cannot (415) or will not (400, a pre-wire daemon JSON-parsing
		// the frame) decode wire requests. Remember and retry as JSON.
		t.jsonReq.Store(base, struct{}{})
	}
	return t.doPostOnce(ctx, base, path, in, acceptWire, false)
}

// wireRequestEligible reports whether this request should be sent
// wire-encoded: the transport allows it, the request type has a frame,
// and the daemon has not previously rejected one.
func (t *HTTPTransport) wireRequestEligible(base string, in interface{}) bool {
	if t.JSONOnly || t.JSONRequests {
		return false
	}
	switch in.(type) {
	case QueryRequest, BatchQueryRequest, InstallRequest:
	default:
		return false
	}
	_, marked := t.jsonReq.Load(base)
	return !marked
}

// wireRequestRejected recognises a server's authoritative refusal of a
// wire-encoded request body: 415 from a daemon with wire requests
// disabled, 400 from a pre-wire daemon whose JSON decoder choked on the
// frame. Both fail in decode, before any handler side effect, so the
// JSON retry cannot double-execute anything.
func wireRequestRejected(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == http.StatusUnsupportedMediaType || se.Code == http.StatusBadRequest
}

// encodeWireRequest writes in's binary request frame into buf.
func encodeWireRequest(buf *bytes.Buffer, in interface{}) error {
	switch req := in.(type) {
	case QueryRequest:
		return wire.WriteQueryRequest(buf, req.Host, &req.Query)
	case BatchQueryRequest:
		return wire.WriteBatchRequest(buf, req.Hosts, &req.Query, req.Parallel)
	case InstallRequest:
		return wire.WriteInstallRequest(buf, req.Host, &req.Query, req.Period)
	default:
		return fmt.Errorf("rpc: no wire request frame for %T", in)
	}
}

func (t *HTTPTransport) doPostOnce(ctx context.Context, base, path string, in interface{}, acceptWire, wireReq bool) (*http.Response, error) {
	buf := reqBufs.Get().(*bytes.Buffer)
	buf.Reset()
	contentType := "application/json"
	if wireReq {
		if err := encodeWireRequest(buf, in); err != nil {
			putReqBuf(buf)
			return nil, err
		}
		contentType = wire.ContentType
	} else if err := json.NewEncoder(buf).Encode(in); err != nil {
		putReqBuf(buf)
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(buf.Bytes()))
	if err != nil {
		putReqBuf(buf)
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if acceptWire {
		req.Header.Set("Accept", wire.ContentType+", application/json")
	}
	if tid := obs.TraceFromContext(ctx); tid != "" {
		req.Header.Set(TraceHeader, tid)
	}
	resp, err := t.client().Do(req)
	// Do has fully consumed (or abandoned) the body by the time it
	// returns, retries included, so the buffer is recyclable here.
	putReqBuf(buf)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return resp, &StatusError{Code: resp.StatusCode, URL: base + path, Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	return resp, nil
}

// closeBody drains a bounded remainder and closes, so the pooled
// connection is reusable instead of being torn down mid-body.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// postStatus posts to an explicit base URL, optionally throttled by sem,
// decodes the JSON response into out, and reports the HTTP status so
// callers can detect missing endpoints. The request carries ctx
// (http.NewRequestWithContext), so cancelling it aborts the dial, the
// in-flight request, and the response read; waiting on a semaphore slot
// is interruptible too. postStatus never offers the wire encoding, so a
// wire-typed reply means the server ignored the negotiation; it is
// reported as *UnexpectedContentTypeError instead of being fed to the
// JSON decoder, whose "invalid character" noise would hide the real
// mismatch.
func (t *HTTPTransport) postStatus(ctx context.Context, base, path string, in, out interface{}, sem chan struct{}) (int, error) {
	release, err := acquire(ctx, sem)
	if err != nil {
		return 0, err
	}
	defer release()
	resp, err := t.doPost(ctx, base, path, in, false)
	if err != nil {
		if resp != nil {
			return resp.StatusCode, err
		}
		return 0, err
	}
	defer closeBody(resp)
	if ct := resp.Header.Get("Content-Type"); wire.IsWire(ct) {
		return resp.StatusCode, &UnexpectedContentTypeError{URL: base + path, ContentType: ct}
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// UnexpectedContentTypeError reports a reply whose Content-Type the
// client never offered to accept — a daemon answering the binary wire
// encoding to a request that only asked for JSON. It names the encoding
// so the mismatch is diagnosable, where JSON-decoding the frame bytes
// would fail with a garbled syntax error.
type UnexpectedContentTypeError struct {
	URL         string
	ContentType string
}

// Error implements error.
func (e *UnexpectedContentTypeError) Error() string {
	return fmt.Sprintf("rpc: %s answered unrequested content type %q", e.URL, e.ContentType)
}

// Query implements controller.Transport. The response body streams
// through whichever decoder its Content-Type selects — the binary wire
// codec when the daemon took the offer, JSON otherwise. Wire replies
// decode chunk by chunk, in place, into one buffer from the record pool,
// so decode work overlaps a streaming daemon's scan and arrival on the
// network instead of waiting for the frame's last byte; the controller
// recycles the buffer once the merge has folded it in.
func (t *HTTPTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, controller.QueryMeta, error) {
	base, ok := t.URLs[host]
	if !ok {
		return query.Result{}, controller.QueryMeta{}, fmt.Errorf("rpc: no URL for host %v", host)
	}
	httpResp, err := t.doPost(ctx, base, "/query", QueryRequest{Host: &host, Query: q}, !t.JSONOnly)
	if err != nil {
		return query.Result{}, controller.QueryMeta{}, err
	}
	defer closeBody(httpResp)
	if wire.IsWire(httpResp.Header.Get("Content-Type")) {
		m, res, err := wire.ReadQuery(httpResp.Body)
		if err != nil {
			return query.Result{}, controller.QueryMeta{}, err
		}
		return *res, controller.QueryMeta{
			RecordsScanned:  m.RecordsScanned,
			SegmentsScanned: m.SegmentsScanned,
			SegmentsPruned:  m.SegmentsPruned,
			Span:            decodeSpanHeader(httpResp.Header),
		}, nil
	}
	var resp QueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return query.Result{}, controller.QueryMeta{}, err
	}
	return resp.Result, controller.QueryMeta{
		RecordsScanned:  resp.RecordsScanned,
		SegmentsScanned: resp.SegmentsScanned,
		SegmentsPruned:  resp.SegmentsPruned,
		Span:            resp.Span,
	}, nil
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

// snapshotHandler builds the GET /snapshot handler over a target
// resolver (single-agent servers always answer with their one target;
// multi-agent daemons pick by the ?host query parameter). The snapshot
// streams straight from the store's consistent capture to the socket —
// ingest continues while it is written. With ?since_seq=N the target
// serves an incremental stream instead (see IncrementalSnapshotter).
// Targets without the needed support answer 501.
func snapshotHandler(resolve func(*http.Request) (Target, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		t, err := resolve(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		var since uint64
		if raw := r.URL.Query().Get("since_seq"); raw != "" {
			since, err = strconv.ParseUint(raw, 10, 64)
			if err != nil {
				http.Error(w, "rpc: since_seq must be an unsigned integer", http.StatusBadRequest)
				return
			}
		}
		// The status line is already committed once bytes flow; a
		// mid-stream failure surfaces to the puller as a truncated body,
		// which the loader rejects (no terminator) without touching the
		// store it would have replaced.
		if since > 0 {
			isn, ok := t.(IncrementalSnapshotter)
			if !ok {
				http.Error(w, "rpc: target cannot stream incremental snapshots", http.StatusNotImplemented)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_ = isn.WriteSnapshotSince(w, since)
			return
		}
		sn, ok := t.(Snapshotter)
		if !ok {
			http.Error(w, "rpc: target cannot stream snapshots", http.StatusNotImplemented)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = sn.WriteSnapshot(w)
	}
}

// PullSnapshot captures a live daemon's TIB snapshot for one host: GET
// /snapshot, streamed into w. The byte count written is returned; a
// non-200 answer surfaces as a *StatusError (501 = the target cannot
// snapshot).
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

// PullSnapshotSince captures an incremental snapshot for one host: GET
// /snapshot?since_seq=N, streamed into w. The stream is a delta of
// everything past the watermark — or a full snapshot when the
// daemon could not serve the delta (watermark evicted); the receiver
// tells them apart by applying the stream with tib.ApplyIncremental,
// which handles both. Byte count written is returned; a non-200 answer
// surfaces as a *StatusError (501 = the target cannot serve deltas).
func (t *HTTPTransport) PullSnapshotSince(ctx context.Context, host types.HostID, since uint64, w io.Writer) (int64, error) {
	base, ok := t.URLs[host]
	if !ok {
		return 0, fmt.Errorf("rpc: no URL for host %v", host)
	}
	url := fmt.Sprintf("%s/snapshot?host=%d&since_seq=%d", base, uint32(host), since)
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
// DefaultMaxBody): a body marked with the wire Content-Type decodes
// through the binary request frames (unless disableWire emulates an old
// daemon, answering 415 so the client falls back to JSON), anything else
// decodes as JSON. An over-limit body answers 413 with an explicit
// message; it used to surface as a baffling 400 "unexpected EOF" when the
// cap was a bare io.LimitReader silently truncating the stream.
func decode(w http.ResponseWriter, r *http.Request, v interface{}, limit int64, disableWire bool) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if wire.IsWire(r.Header.Get("Content-Type")) {
		if disableWire {
			http.Error(w, "rpc: wire-encoded requests disabled here", http.StatusUnsupportedMediaType)
			return false
		}
		if err := decodeWireRequest(body, v); err != nil {
			writeDecodeError(w, err)
			return false
		}
		return true
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// errWireEndpoint marks a wire-encoded body posted to an endpoint that
// has no binary request frame (alarms, uninstalls); decode answers 415 so
// the client retries as JSON.
var errWireEndpoint = errors.New("rpc: endpoint does not accept wire-encoded requests")

// decodeWireRequest maps the handler's request struct onto its wire frame
// decoder. Decoding fails before any handler side effect, so a client may
// safely retry the same request as JSON.
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
	case *InstallRequest:
		host, q, period, err := wire.ReadInstallRequest(body)
		if err != nil {
			return err
		}
		req.Host, req.Query, req.Period = host, q, period
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
// negotiated: the binary wire format when the client offered it (and the
// server hasn't disabled it), JSON otherwise. The wire path streams
// columns straight to the socket instead of buffering the whole reply.
// Once the first body byte is out the status line is committed, so a
// mid-stream write failure just truncates the frame — the client-side
// decoder rejects truncated frames explicitly.
func writeQueryResponse(w http.ResponseWriter, r *http.Request, disableWire, compress bool, resp QueryResponse) {
	if disableWire || !wire.Accepted(r.Header.Get("Accept")) {
		encode(w, resp)
		return
	}
	if resp.Span != nil {
		// The binary frame has no span slot; ride the response header.
		if b, err := json.Marshal(resp.Span); err == nil {
			w.Header().Set(SpanHeader, string(b))
		}
	}
	w.Header().Set("Content-Type", wire.ContentType)
	_ = wire.WriteQuery(w, wire.Meta{
		RecordsScanned:  resp.RecordsScanned,
		SegmentsScanned: resp.SegmentsScanned,
		SegmentsPruned:  resp.SegmentsPruned,
	}, &resp.Result, compress)
}

// writeBatchResponse is writeQueryResponse for /batchquery.
func writeBatchResponse(w http.ResponseWriter, r *http.Request, disableWire, compress bool, replies []BatchQueryReply) {
	if disableWire || !wire.Accepted(r.Header.Get("Accept")) {
		encode(w, BatchQueryResponse{Replies: replies})
		return
	}
	out := make([]wire.BatchReply, len(replies))
	for i := range replies {
		out[i] = wire.BatchReply{
			Host: replies[i].Host,
			Meta: wire.Meta{
				RecordsScanned:  replies[i].RecordsScanned,
				SegmentsScanned: replies[i].SegmentsScanned,
				SegmentsPruned:  replies[i].SegmentsPruned,
			},
			Result: replies[i].Result,
			Error:  replies[i].Error,
		}
	}
	w.Header().Set("Content-Type", wire.ContentType)
	_ = wire.WriteBatch(w, out, compress)
}
