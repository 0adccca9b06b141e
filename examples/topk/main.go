// Distributed top-k flows (§2.3, §5.2, Fig. 12): every host ranks its
// local flows with the Table-1 API; the controller aggregates either
// directly or through a multi-level tree. The example contrasts the two
// execution strategies' modelled response time and network traffic.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pathdump"
	"pathdump/internal/workload"
)

func main() {
	c, err := pathdump.NewFatTree(4, pathdump.Config{
		Net: pathdump.NetConfig{BandwidthBps: 100e6, Seed: 21},
	})
	if err != nil {
		log.Fatal(err)
	}
	hosts := c.HostIDs()

	gen, err := workload.NewGenerator(c.Sim, c.Stacks, workload.GenConfig{
		Sources: hosts, Dests: hosts,
		Load: 0.4, LinkBps: 100e6, Dist: workload.WebSearch(),
		Until: 20 * pathdump.Second, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen.Start()
	c.Run(30 * pathdump.Second)
	fmt.Printf("ran %d flows; TIBs populated across %d hosts\n\n", gen.Started, len(hosts))

	q := pathdump.Query{Op: pathdump.OpTopK, K: 10}
	direct, dstats, err := c.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		log.Fatal(err)
	}
	tree, tstats, err := c.ExecuteTreeContext(context.Background(), hosts, q, []int{4, 2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- top-10 flows cluster-wide --")
	for i, fb := range direct.Top {
		fmt.Printf("#%-2d %-42s %9d bytes\n", i+1, fb.Flow, fb.Bytes)
	}
	if len(direct.Top) != len(tree.Top) {
		log.Fatal("direct and multi-level query disagree")
	}

	fmt.Println("\n-- execution strategies --")
	fmt.Printf("direct      : %8v response, %7d wire bytes\n", dstats.ResponseTime, dstats.WireBytes)
	fmt.Printf("multi-level : %8v response, %7d wire bytes (tree fan-out 4×2)\n", tstats.ResponseTime, tstats.WireBytes)

	// Deadlines keep queries interactive in both senses. A real wall-clock
	// deadline (context.WithTimeout) aborts the fan-out if agents stall;
	// here everything is in-process, so it completes well inside it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, stats, err := c.ExecuteContext(ctx, hosts, q); err != nil {
		log.Fatalf("deadline-bounded query failed (%d hosts skipped): %v", stats.Skipped, err)
	}
	// And a modelled per-query deadline (§5.2 cost model) caps the
	// modelled response time: the controller hands back whatever arrived.
	c.Ctrl.Cost.Deadline = dstats.ResponseTime / 2
	_, capped, err := c.ExecuteContext(context.Background(), hosts, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with a modelled deadline of %v the direct query reports %v\n",
		c.Ctrl.Cost.Deadline, capped.ResponseTime)

	fmt.Println("\nat small scale direct wins; the tree's advantage appears as host")
	fmt.Println("count and per-host result size grow (run cmd/experiments fig12).")
}
