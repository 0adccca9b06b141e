package experiments

import (
	"math"
	"math/rand"
	"time"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// Fig13 measures the edge-datapath forwarding throughput (§5.3, Fig. 13):
// the PathDump receive path (header parse + trajectory extraction +
// per-path flow record update + tag strip) against a vanilla vSwitch
// receive path (header parse + flow-table update + packet copy), across
// packet sizes, with ~4 000 hot flow records in the trajectory memory —
// the paper's load point (≈100 K flows/s at a rack of 24 hosts).
//
// The paper's absolute numbers (up to 10 Gb/s over DPDK) include NIC and
// memory-ring costs that do not exist in-process. What holds is the
// shape's first half: per-packet cost is nearly flat in packet size, so
// bits/s grows linearly with size while packets/s falls. The second half,
// PathDump's overhead a few percent of the vanilla rate, does not: the
// vanilla path is itself one Go map update and a copy, ≈ 35 ns, and
// PathDump adds a flow-index probe, a slab access, a header pack, a lock
// and the agent's bookkeeping on top. BenchmarkFig13Datapath on a 2-vCPU
// Xeon @ 2.10GHz (medians of 10) reads an overhead of ≈ 67 % at 64 B and
// ≈ 70 % at 1500 B (PathDump adds ≈ 72–75 ns per packet); while the
// trajectory memory indexed flows with a Go map under an RWMutex it read
// ≈ 72 % and ≈ 80 % (≈ 95–120 ns added).

// Fig13Config parameterises the microbenchmark.
type Fig13Config struct {
	Sizes   []int // default {64, 128, 256, 512, 1024, 1500}
	Packets int   // packets per timed round (default 300 000)
	Flows   int   // hot flows (default 4 000)
	Seed    int64
}

func (c Fig13Config) withDefaults() Fig13Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{64, 128, 256, 512, 1024, 1500}
	}
	if c.Packets == 0 {
		c.Packets = 300_000
	}
	if c.Flows == 0 {
		c.Flows = 4_000
	}
	return c
}

// fig13Rounds is how many interleaved rounds Fig13 times per path and
// size, keeping each path's fastest.
const fig13Rounds = 5

// Fig13Row is one packet size's measurement.
type Fig13Row struct {
	Size                      int
	PathDumpMpps, VanillaMpps float64
	PathDumpGbps, VanillaGbps float64
	OverheadPct               float64 // throughput loss vs vanilla
}

// Fig13Result reproduces Figure 13.
type Fig13Result struct {
	Rows []Fig13Row
}

// DatapathBench is the reusable harness shared with bench_test.go.
type DatapathBench struct {
	Agent   *agent.Agent
	Packets []*netsim.Packet
	// flowTable emulates the vanilla vSwitch's per-flow state.
	flowTable map[types.FlowID]uint64
	buf       []byte
}

// NewDatapathBench builds an agent on a quiescent simulator plus a ring
// of pre-tagged packets of the given size across `flows` hot flows.
func NewDatapathBench(size, flows int, seed int64) *DatapathBench {
	topo, err := topology.FatTree(4)
	if err != nil {
		panic(err)
	}
	scheme, err := cherrypick.New(topo)
	if err != nil {
		panic(err)
	}
	sim := netsim.New(topo, scheme, netsim.Config{Seed: seed})
	dst := topo.Hosts()[0]
	a := agent.New(sim, dst, nil, nil, agent.Config{CacheSize: flows * 2})

	rng := rand.New(rand.NewSource(seed))
	r := topology.NewRouter(topo)
	hosts := topo.Hosts()
	pkts := make([]*netsim.Packet, flows)
	for i := range pkts {
		src := hosts[1+rng.Intn(len(hosts)-1)]
		f := types.FlowID{
			SrcIP: src.IP, DstIP: dst.IP,
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: types.ProtoTCP,
		}
		paths := r.EqualCostPaths(src.IP, dst.IP)
		p := paths[rng.Intn(len(paths))]
		hdr := cherrypick.ApplyPath(scheme, p, dst.IP)
		pkts[i] = &netsim.Packet{Flow: f, Size: size, Hdr: hdr}
	}
	return &DatapathBench{
		Agent:     a,
		Packets:   pkts,
		flowTable: make(map[types.FlowID]uint64, flows),
		buf:       make([]byte, 1500),
	}
}

// VanillaOne processes one packet the way a plain software switch would:
// five-tuple lookup/update plus moving the payload.
func (d *DatapathBench) VanillaOne(i int) {
	pkt := d.Packets[i%len(d.Packets)]
	d.flowTable[pkt.Flow] += uint64(pkt.Size)
	// Move the payload once (receive-ring → host buffer).
	n := pkt.Size
	if n > len(d.buf) {
		n = len(d.buf)
	}
	copy(d.buf[:n], d.buf[len(d.buf)-n:])
}

// PathDumpOne is VanillaOne plus the PathDump datapath: trajectory
// extraction, per-path flow record update, tag strip.
func (d *DatapathBench) PathDumpOne(i int) {
	pkt := d.Packets[i%len(d.Packets)]
	d.VanillaOne(i)
	hdr := pkt.Hdr // Receive strips the header; restore for the next lap
	d.Agent.Receive(pkt)
	pkt.Hdr = hdr
}

// Fig13 runs the measurement.
func Fig13(cfg Fig13Config) *Fig13Result {
	cfg = cfg.withDefaults()
	res := &Fig13Result{}
	for _, size := range cfg.Sizes {
		d := NewDatapathBench(size, cfg.Flows, cfg.Seed)
		// Warm both paths.
		for i := 0; i < cfg.Flows; i++ {
			d.PathDumpOne(i)
		}
		// Each path is timed fig13Rounds times, the two interleaved, and
		// keeps its fastest round: one stall of either loop (a collection,
		// a descheduled thread) costs that round, not the comparison.
		vanilla, pd := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range fig13Rounds {
			start := time.Now()
			for i := 0; i < cfg.Packets; i++ {
				d.VanillaOne(i)
			}
			vanilla = min(vanilla, time.Since(start))
			start = time.Now()
			for i := 0; i < cfg.Packets; i++ {
				d.PathDumpOne(i)
			}
			pd = min(pd, time.Since(start))
		}

		row := Fig13Row{Size: size}
		row.VanillaMpps = float64(cfg.Packets) / vanilla.Seconds() / 1e6
		row.PathDumpMpps = float64(cfg.Packets) / pd.Seconds() / 1e6
		row.VanillaGbps = row.VanillaMpps * float64(size) * 8 / 1e3
		row.PathDumpGbps = row.PathDumpMpps * float64(size) * 8 / 1e3
		row.OverheadPct = (1 - row.PathDumpMpps/row.VanillaMpps) * 100
		res.Rows = append(res.Rows, row)
	}
	return res
}
