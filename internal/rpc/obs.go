package rpc

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/wire"
)

// HealthStatus is the GET /healthz body: a cheap readiness probe that
// never executes a query. Status is "ok" once the server can answer
// queries; daemons mid-restore report "loading".
type HealthStatus struct {
	Status string `json:"status"`
	// Hosts is how many host agents this server fronts.
	Hosts int `json:"hosts"`
	// Records is the total TIB records resident across those agents.
	Records int `json:"records"`
	// Snapshot describes snapshot/restore state when relevant (e.g.
	// "restored" for a daemon serving a loaded snapshot).
	Snapshot string `json:"snapshot,omitempty"`
}

// ServerObs is the observability surface a server mounts alongside its
// API: the metrics registry behind GET /metrics, optional pprof
// handlers, an optional health callback overriding the server's
// default /healthz answer, and an optional slow-query log behind GET
// /slowlog. A nil *ServerObs leaves the server uninstrumented (the
// /healthz endpoint is still served — readiness probing must not
// depend on observability being wired).
type ServerObs struct {
	// Registry backs GET /metrics and receives the server's rpc-plane
	// metrics (request counts by op and encoding, latency, response
	// bytes, 4xx/5xx, body-cap rejections).
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Health, when set, answers GET /healthz instead of the server's
	// default (which reports agent count and resident records).
	Health func() HealthStatus
	// SlowLog, when set, is served as GET /slowlog (newest first).
	SlowLog *obs.SlowLog
}

// rpcMetrics is one wrapped endpoint's pre-registered series set; all
// label rendering happened at registration, so the per-request cost is
// a handful of atomic ops.
type rpcMetrics struct {
	reqJSON *obs.Counter
	reqWire *obs.Counter
	dur     *obs.Histogram
	bytes   *obs.Histogram
	e4xx    *obs.Counter
	e5xx    *obs.Counter
	bodyCap *obs.Counter
}

// wrap instruments one endpoint: request count split by response
// encoding, latency and response-size histograms, error-class
// counters, and 413 body-cap rejections. With no registry it returns
// h untouched — zero overhead for uninstrumented servers.
func (so *ServerObs) wrap(op string, h http.HandlerFunc) http.HandlerFunc {
	if so == nil || so.Registry == nil {
		return h
	}
	r := so.Registry
	m := &rpcMetrics{
		reqJSON: r.Counter("pathdump_rpc_requests_total", "RPC requests served, by endpoint and response encoding.", obs.L("op", op), obs.L("enc", "json")),
		reqWire: r.Counter("pathdump_rpc_requests_total", "RPC requests served, by endpoint and response encoding.", obs.L("op", op), obs.L("enc", "wire")),
		dur:     r.Histogram("pathdump_rpc_request_seconds", "RPC request handling latency.", obs.LatencyBuckets, obs.L("op", op)),
		bytes:   r.Histogram("pathdump_rpc_response_bytes", "RPC response body sizes.", obs.SizeBuckets, obs.L("op", op)),
		e4xx:    r.Counter("pathdump_rpc_errors_total", "RPC error responses, by endpoint and status class.", obs.L("op", op), obs.L("class", "4xx")),
		e5xx:    r.Counter("pathdump_rpc_errors_total", "RPC error responses, by endpoint and status class.", obs.L("op", op), obs.L("class", "5xx")),
		bodyCap: r.Counter("pathdump_rpc_body_cap_rejections_total", "Request bodies rejected by the size cap (HTTP 413).", obs.L("op", op)),
	}
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		ow := &obsWriter{ResponseWriter: w}
		h(ow, req)
		if wire.IsWire(ow.Header().Get("Content-Type")) {
			m.reqWire.Inc()
		} else {
			m.reqJSON.Inc()
		}
		m.dur.ObserveDuration(time.Since(start))
		m.bytes.Observe(float64(ow.bytes))
		switch {
		case ow.status >= 500:
			m.e5xx.Inc()
		case ow.status == http.StatusRequestEntityTooLarge:
			m.bodyCap.Inc()
			m.e4xx.Inc()
		case ow.status >= 400:
			m.e4xx.Inc()
		}
	}
}

// snapshotErrors registers the counter of /snapshot streams that failed
// after their status line was committed. With no registry it returns a
// nil counter, which no-ops.
func (so *ServerObs) snapshotErrors() *obs.Counter {
	if so == nil || so.Registry == nil {
		return nil
	}
	return so.Registry.Counter("pathdump_rpc_snapshot_errors_total", "Snapshot streams that failed mid-body (the puller saw a truncated stream).")
}

// obsWriter captures status and body bytes as they pass through; it
// forwards Flush so streaming handlers (SSE, snapshots) keep working.
type obsWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader implements http.ResponseWriter.
func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implements io.Writer.
func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *obsWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// mountObs registers the observability endpoints on a server mux:
// /healthz always (readiness must not depend on instrumentation),
// /metrics when a registry is wired, /slowlog when a slow-query log
// is, and /debug/pprof/ when opted in.
func mountObs(mux *http.ServeMux, so *ServerObs, defaultHealth func() HealthStatus) {
	health := defaultHealth
	if so != nil && so.Health != nil {
		health = so.Health
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := health()
		if h.Status != "ok" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			b, _ := json.Marshal(h)
			w.Write(b)
			w.Write([]byte{'\n'})
			return
		}
		encode(w, h)
	})
	if so == nil {
		return
	}
	if so.Registry != nil {
		mux.Handle("/metrics", so.Registry.Handler())
	}
	if so.SlowLog != nil {
		mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
			encode(w, so.SlowLog.Entries())
		})
	}
	if so.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
