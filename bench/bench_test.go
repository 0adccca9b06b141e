package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON mirrors the fields of BENCHMARK.json the catalogue must
// agree with.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON pins the catalogue to BENCHMARK.json:
// same workloads, same metrics, same units, directions and bounds, in
// the same order. A rename on one side only is name drift and fails.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue has %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		if g := b.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalogue has %+v", i, g, d)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(b.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		if g := b.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalogue has %+v", i, g, d)
		}
	}
}

func smoke(t *testing.T, workload string, seed int64, trace bool) *Report {
	t.Helper()
	rep, err := Run(Config{
		Workload: workload, Seed: seed, Window: 300 * time.Millisecond,
		Trace: trace, Small: true, TmpDir: t.TempDir(), OutDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !rep.Correct() {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", workload, seed, rep.Failed, rep.Attempted, rep.Errors)
	}
	return rep
}

// waitGoroutines waits for the goroutine count to fall back to base:
// teardown must leave no server, SSE tail or forwarder behind.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines left, %d before the run\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSmoke runs every workload with a 300 ms window and shrunken sizes,
// untraced and traced, and checks the contract of the printed output:
// every metric of the run's BENCHMARK.json section exactly once with its
// unit and no metric the file does not name; a well-formed result line;
// the same seed giving the same input digest and oracle answers and
// another seed not; end-to-end metrics never zero; and a clean teardown.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	units := make(map[string]string)
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	metricLine := regexp.MustCompile(`(?m)^  (\S+)\s+(\S+) (\S+)$`)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			first := smoke(t, w.Name, 1, false)
			other := smoke(t, w.Name, 2, false)
			traced := smoke(t, w.Name, 1, true)
			if first.Digest != traced.Digest || first.OracleDigest != traced.OracleDigest {
				t.Errorf("seed 1 twice: digests %x/%x then %x/%x", first.Digest, first.OracleDigest, traced.Digest, traced.OracleDigest)
			}
			if first.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 share input digest %x", first.Digest)
			}
			for _, rep := range []*Report{first, traced} {
				var out bytes.Buffer
				if err := rep.Print(&out, "test"); err != nil {
					t.Fatal(err)
				}
				seen := make(map[string]int)
				for _, m := range metricLine.FindAllStringSubmatch(out.String(), -1) {
					name, unit := m[1], m[3]
					seen[name]++
					if want, ok := units[name]; !ok {
						t.Errorf("trace=%t prints %q, which BENCHMARK.json does not name", rep.Trace, name)
					} else if unit != want {
						t.Errorf("trace=%t prints %s in %q, BENCHMARK.json says %q", rep.Trace, name, unit, want)
					}
				}
				for _, d := range rep.Defs() {
					if seen[d.Name] != 1 {
						t.Errorf("trace=%t prints %s %d times, want once", rep.Trace, d.Name, seen[d.Name])
					}
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
					t.Errorf("result line %s", lines[len(lines)-1])
				}
				if len(res.Metrics) != len(rep.Defs()) {
					t.Errorf("result line carries %d metrics, want %d", len(res.Metrics), len(rep.Defs()))
				}
				for _, d := range rep.Defs() {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("result line lacks %s in %s", d.Name, d.Unit)
					} else if !rep.Trace && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, *m.Value)
					}
				}
			}
			if traced.Value("bench.ladder_samples") < 1 {
				t.Errorf("traced run took no ladder sample")
			}
			waitGoroutines(t, w.Name, base)
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("Quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
