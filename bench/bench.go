package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Config selects one run of one workload.
type Config struct {
	Workload string
	Seed     int64
	// Window is how long the run measures. A traced run spends the first
	// third on an untraced window and the rest traced.
	Window time.Duration
	// Trace selects the per-layer run: spans, the layer ladder on every
	// 8th op, and the layer-share report.
	Trace bool
	// Small shrinks every size: the smoke test's mode.
	Small bool
	// Start is when the process started; set-up time runs from it to the
	// start of the measured window (zero = when Run was called).
	Start time.Time
	// TmpDir is the parent of the cold tier's files ("" = os.TempDir()).
	TmpDir string
	// OutDir receives trace-<workload>.json from a traced run ("" = none).
	OutDir string
}

// ladderEvery is the traced run's sampling period: every 8th op is
// replayed through each layer's exported entry point.
const ladderEvery = 8

// opTimeout bounds one op; an op that outlives it counts as failed.
const opTimeout = 5 * time.Second

// Report is what one run measured.
type Report struct {
	Config
	// Digest identifies the generated inputs; OracleDigest the reference
	// answers. Same seed, same digests.
	Digest       uint64
	OracleDigest uint64
	Attempted    int
	Failed       int
	// Ops is the completed work-unit count (packets for ingest-steady,
	// sessions elsewhere); Samples and Beyond99 describe the latency
	// sample behind e2e.lat_p50_us and e2e.lat_p99_us.
	Ops      int
	Samples  int
	Beyond99 int
	// Errors explains failed ops and oracle mismatches (first few).
	Errors []string
	// Shares is the traced run's layer-share report, one line per layer.
	Shares []string

	vals map[string]float64
}

func (r *Report) set(name string, v float64) { r.vals[name] = v }

func (r *Report) fail(format string, args ...any) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Correct reports whether every op succeeded and every oracle check held.
func (r *Report) Correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// Value returns a metric by catalogue name (0 when the run did not
// produce it).
func (r *Report) Value(name string) float64 { return r.vals[name] }

// Defs returns the catalogue section this run reports in its result
// line: end-to-end for an untraced run, per-layer for a traced one.
func (r *Report) Defs() []MetricDef {
	if r.Trace {
		return PerLayer
	}
	return EndToEnd
}

// workload is one benchmark scenario. build and close bracket a world;
// everything before the first window — build and verify — is set-up.
type workload interface {
	// build boots the system and brings it to steady state.
	build() error
	// verify computes the oracle and checks each query class in full.
	verify(rep *Report)
	// measure drives the system for the window. tr is nil when untraced.
	measure(window time.Duration, m *meter, tr *tracer)
	// finish adds the workload's own metrics after the last window.
	finish(rep *Report, m *meter, tr *tracer)
	close()
}

func newWorkload(cfg Config) (workload, error) {
	switch cfg.Workload {
	case IngestSteady:
		return newIngest(cfg), nil
	case QueryFanout:
		return newFanout(cfg), nil
	case QueryScan:
		return newScan(cfg), nil
	case Live:
		return newLive(cfg), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", cfg.Workload)
}

// Run executes one workload end to end: set-up, oracle verification, the
// measured window(s), teardown.
func Run(cfg Config) (*Report, error) {
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	rep := &Report{Config: cfg, vals: make(map[string]float64)}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.build(); err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", cfg.Workload, err)
	}
	w.verify(rep)

	// End-to-end numbers come from an untraced window, per-layer numbers
	// from a traced one: a traced run measures both, a third and two thirds
	// of its time.
	var tr *tracer
	m := &meter{}
	untraced, window := m, cfg.Window
	if cfg.Trace {
		untraced = &meter{}
		w.measure(cfg.Window/3, untraced, nil)
		tr = newTracer(cfg.Workload, cfg.Seed)
		window -= cfg.Window / 3
	}
	w.measure(window, m, tr)
	rep.set("setup_s", untraced.start.Sub(cfg.Start).Seconds())
	untraced.report(rep)
	if cfg.Trace {
		if rt := untraced.throughput(); rt > 0 {
			rep.set("bench.trace_overhead_share", 1-m.throughput()/rt)
		}
		rep.Attempted += m.attempted
		rep.Failed += m.failed
		rep.Errors = append(rep.Errors, m.errs...)
	}
	rep.set("e2e.failed_share", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	rep.set("runtime.gc_cycles", float64(m.m1.NumGC-m.m0.NumGC))
	rep.set("runtime.gc_pause_ms", float64(m.m1.PauseTotalNs-m.m0.PauseTotalNs)/1e6)
	rep.set("runtime.goroutines_end", float64(m.gor))
	w.finish(rep, m, tr)
	if tr != nil && cfg.OutDir != "" {
		if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// meter measures one window: op latencies, work units, failures and the
// runtime's allocation counters around it.
type meter struct {
	lat       []float64 // µs, successful ops only
	units     float64   // completed work units (the throughput numerator)
	attempted int
	failed    int
	errs      []string
	wireBytes int64

	start   time.Time
	elapsed time.Duration
	m0, m1  runtime.MemStats
	heap    uint64
	gor     int
}

// begin forces one GC and snapshots the counters; the window starts now.
func (m *meter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.m0)
	m.start = time.Now()
}

// end closes the window, then forces two GCs to read the live heap: the
// second empties the sync.Pools' victim caches, whose contents depend on
// where the window happened to stop.
func (m *meter) end() {
	m.elapsed = time.Since(m.start)
	runtime.ReadMemStats(&m.m1)
	m.gor = runtime.NumGoroutine()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = ms.HeapAlloc
}

func (m *meter) failf(format string, args ...any) {
	m.failed++
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

func (m *meter) throughput() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return m.units / m.elapsed.Seconds()
}

// report turns an untraced window into the end-to-end metrics every
// workload shares.
func (m *meter) report(rep *Report) {
	rep.Attempted, rep.Failed = m.attempted, m.failed
	rep.Errors = append(rep.Errors, m.errs...)
	rep.Ops = int(m.units)
	sort.Float64s(m.lat)
	p50, _ := quantile(m.lat, 0.50)
	p99, beyond := quantile(m.lat, 0.99)
	rep.Samples, rep.Beyond99 = len(m.lat), beyond
	rep.set("e2e.throughput_per_s", m.throughput())
	rep.set("e2e.lat_p50_us", p50)
	rep.set("e2e.lat_p99_us", p99)
	rep.set("heap_mb", float64(m.heap)/(1<<20))
	if m.units > 0 {
		rep.set("alloc_kb_per_op", float64(m.m1.TotalAlloc-m.m0.TotalAlloc)/1024/m.units)
		rep.set("allocs_per_op", float64(m.m1.Mallocs-m.m0.Mallocs)/m.units)
	}
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
	t0       time.Time
}

// span is one timed interval: the op it belongs to, its name, the span
// that caused it (0 = none) and start/end in ns since the window began.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(workload string, seed int64) *tracer {
	return &tracer{Workload: workload, Seed: seed, t0: time.Now()}
}

// add records one span and returns its ID for children to name.
func (t *tracer) add(op, parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	id := len(t.Spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.Spans = append(t.Spans, span{ID: id, Op: op, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Print writes the run record and every reported metric, one per line,
// and ends with the machine-readable result line.
func (r *Report) Print(w io.Writer, rev string) error {
	fmt.Fprintf(w, "pathdumpbench workload=%s seed=%d window=%s trace=%t small=%t nproc=%d GOMAXPROCS=%d %s rev=%s\n",
		r.Workload, r.Seed, r.Window, r.Trace, r.Small, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
	fmt.Fprintf(w, "inputs digest=%016x oracle=%016x ops=%d attempted=%d failed=%d lat_samples=%d beyond_p99=%d\n",
		r.Digest, r.OracleDigest, r.Ops, r.Attempted, r.Failed, r.Samples, r.Beyond99)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jsonMetric)
	for _, d := range r.Defs() {
		v := r.vals[d.Name]
		out[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-34s %16.8g %s\n", d.Name, v, d.Unit)
	}
	if !r.Trace {
		// What an untraced run measures beyond the bounded set: the
		// end-to-end numbers that apply to this workload only.
		for _, d := range PerLayer {
			if v, ok := r.vals[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.8g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, line := range r.Shares {
		fmt.Fprintln(w, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
