package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"pathdump/bench"
)

// runAA runs two interleaved sets (A B B A A B B A …, so that drift lands
// on both alike) of n full passes of this same binary — a pass is every
// workload once, pass i with seed i+1 — and prints, per workload and
// metric, both medians, how much worse B's is than A's, each set's
// inter-quartile spread as a share of its median, and the bound: the
// benchmark driver's arithmetic. The first table holds the bounded
// metrics and flags a gap or spread beyond the bound. The second holds the
// issue's end-to-end metrics that are tracked unbounded, against the bound
// the issue tabled for each, and flags what does not hold half of it —
// the issue's criterion for demoting a metric.
func runAA(n, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric]
	values := [2]map[string]map[string][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		set, seed := ((i+1)/2)%2, i/2+1
		for _, w := range bench.Workloads {
			fmt.Fprintf(os.Stderr, "aa: set %c pass %d/%d %s\n", 'A'+set, seed, n, w.Name)
			out, err := exec.Command(exe, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0").Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, out)
			}
			if values[set][w.Name] == nil {
				values[set][w.Name] = make(map[string][]float64)
			}
			// Metric lines read "  name value unit".
			for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
				f := strings.Fields(sc.Text())
				if !strings.HasPrefix(sc.Text(), "  ") || len(f) != 3 {
					continue
				}
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					values[set][w.Name][f[0]] = append(values[set][w.Name][f[0]], v)
				}
			}
		}
	}

	fmt.Printf("A/A: 2 sets x %d passes, %d s windows, interleaved A B B A, seeds 1..%d\n", n, seconds, n)
	table := func(title string, defs []bench.MetricDef, share float64, exempt string) {
		fmt.Printf("\n%s\n\n", title)
		fmt.Println("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |")
		fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---|")
		flagged, pairs := 0, 0
		for _, w := range bench.Workloads {
			for _, d := range defs {
				a, b := values[0][w.Name][d.Name], values[1][w.Name][d.Name]
				if d.Bound == 0 || len(a) < 2 || len(b) < 2 {
					continue
				}
				a1, am, a3 := bench.Quartiles(a)
				b1, bm, b3 := bench.Quartiles(b)
				if am == 0 || bm == 0 {
					continue // the metric does not apply to this workload
				}
				gap := (bm - am) / am
				if d.Better == "higher" {
					gap = -gap
				}
				spreadA, spreadB := (a3-a1)/am, (b3-b1)/bm
				pairs++
				flag := ""
				if gap > share*d.Bound || (d.Name != exempt && max(spreadA, spreadB) > share*d.Bound) {
					flag = "**over**"
					flagged++
				}
				fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
					w.Name, d.Name, am, bm, 100*gap, 100*spreadA, 100*spreadB, 100*d.Bound, flag)
			}
		}
		fmt.Printf("\n%d of %d workload x metric pairs flagged.\n", flagged, pairs)
	}
	// setup_s is exempt from the spread test, as at the driver.
	table("Bounded metrics; flagged: a gap, or a spread (setup_s aside), beyond the bound.", bench.EndToEnd, 1, "setup_s")
	table("Tracked, unbounded, against the bound the issue tabled; flagged: a gap or spread beyond half of it.", bench.PerLayer, 0.5, "")

	fmt.Printf("\nEvery run, in seed order:\n\n")
	for _, w := range bench.Workloads {
		for _, d := range append(append([]bench.MetricDef(nil), bench.EndToEnd...), bench.PerLayer...) {
			if d.Bound == 0 || len(values[0][w.Name][d.Name]) == 0 {
				continue
			}
			for set := range values {
				fmt.Printf("- %s %s %c:", w.Name, d.Name, 'A'+set)
				for _, v := range values[set][w.Name][d.Name] {
					fmt.Printf(" %.6g", v)
				}
				fmt.Println()
			}
		}
	}
	return nil
}
