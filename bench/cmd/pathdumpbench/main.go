// Command pathdumpbench runs one workload of the performance ledger (see
// bench/README.md) and prints every metric by name and unit, ending with
// one machine-readable JSON line:
//
//	pathdumpbench --workload query-scan --seed 1 --seconds 30 --trace 0
//	pathdumpbench -aa 10        # A/A: two sets of ten full passes, compared
//
// It exits non-zero when an op failed or the oracle found a wrong answer.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pathdump/bench"
)

// processStart is where setup_s begins.
var processStart = time.Now()

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ingest-steady, query-fanout, query-scan or live")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = the per-layer run: spans, layer ladder and share report; 0 = end-to-end metrics")
		aa       = flag.Int("aa", 0, "A/A mode: run two interleaved sets of this many full passes of this binary and compare them")
	)
	flag.Parse()
	// The box has two cores; one belongs to the servers, one to the load.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if *aa > 0 {
		check(runAA(*aa, *seconds))
		return
	}
	// Everything a run leaves behind stays under bench/out, which git ignores.
	out := filepath.Join("bench", "out")
	tmp := filepath.Join(out, "tmp")
	check(os.MkdirAll(tmp, 0o755))
	rep, err := bench.Run(bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Start:    processStart,
		Window:   time.Duration(*seconds) * time.Second,
		Trace:    *trace != 0,
		TmpDir:   tmp,
		OutDir:   out,
	})
	check(err)
	check(rep.Print(os.Stdout, revision()))
	if !rep.Correct() {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathdumpbench:", err)
		os.Exit(1)
	}
}

// revision is the checkout's commit, or "unknown" outside a git
// repository (the benchmark driver's checkouts are not).
func revision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
