// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5) over the simulated substrate. Each experiment is a
// pure function from a config (with paper-faithful defaults, scaled to
// run on a laptop) to a structured result; cmd/experiments renders them
// as text and the root bench_test.go wraps them in testing.B benchmarks.
//
// Absolute numbers differ from the paper — its testbed was 28 physical
// servers with hardware switches — but each experiment preserves the
// paper's shape: who wins, by what factor, and where behaviour changes.
// `go run ./cmd/experiments all` prints the measured series of every
// figure.
package experiments

import (
	"fmt"

	"pathdump"
	"pathdump/internal/workload"
)

// buildCluster builds a 4-ary fat-tree cluster with the given fabric
// config, failing loudly: experiment configs are static and must be valid.
func buildCluster(net pathdump.NetConfig) *pathdump.Cluster {
	c, err := pathdump.NewFatTree(4, pathdump.Config{Net: net})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return c
}

// startWebTraffic launches the web-workload generator used by §4.2–§4.4.
func startWebTraffic(c *pathdump.Cluster, srcs, dsts []pathdump.HostID, load float64, linkBps int64, until pathdump.Time, seed int64) *workload.Generator {
	gen, err := workload.NewGenerator(c.Sim, c.Stacks, workload.GenConfig{
		Sources: srcs, Dests: dsts,
		Load: load, LinkBps: linkBps,
		Dist:  workload.WebSearch(),
		Until: until, Seed: seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	gen.Start()
	return gen
}

// podHosts partitions host IDs by pod: srcs from `srcPod`, dsts from the
// rest.
func podHosts(c *pathdump.Cluster, srcPod int) (srcs, dsts []pathdump.HostID) {
	for _, h := range c.Topo.Hosts() {
		if h.Pod == srcPod {
			srcs = append(srcs, h.ID)
		} else {
			dsts = append(dsts, h.ID)
		}
	}
	return srcs, dsts
}
