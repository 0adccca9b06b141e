package bench

import (
	"pathdump/internal/netsim"
	"pathdump/internal/types"
)

// ident maps structural flow indices onto 5-tuples. It is the only place
// the seed enters the generated inputs: which hosts talk, over which
// paths, with how many packets and when is fixed by structure, so that
// every count a query returns — and so every allocation and wire byte —
// is the same for every seed, while the flows' identities, and with
// them shard placement, map layout and bloom bits, are not. Ports stay
// five digits wide so that encoded sizes do not depend on the seed
// either.
type ident struct {
	base, stride, dport uint64
}

const portSpan = 50000 // ports 10000..59999

func newIdent(seed int64) ident {
	s := mix(uint64(seed))
	stride := 1 + 2*(mix(s)%(portSpan/2)) // odd
	for stride%5 == 0 {                   // and coprime with 50000 = 2^4 * 5^5
		stride += 2
	}
	return ident{base: s % portSpan, stride: stride, dport: mix(s^0xd1b54a32d192ed03) % portSpan}
}

// flow returns the identity of structural flow f between src and dst.
// Indices below 50000 map to distinct source ports; beyond that the
// destination port steps too.
func (id ident) flow(src, dst types.IP, f uint64) types.FlowID {
	return types.FlowID{
		SrcIP:   src,
		DstIP:   dst,
		SrcPort: uint16(10000 + (id.base+f*id.stride)%portSpan),
		DstPort: uint16(10000 + (id.dport+(f/portSpan)*7919)%portSpan),
		Proto:   types.ProtoTCP,
	}
}

// pktSize alternates minimum-size and MTU-size packets within a flow.
func pktSize(j int) int {
	if j%2 == 1 {
		return 64
	}
	return 1500
}

// flowBytes is the byte count of a flow of n packets.
func flowBytes(n int) uint64 {
	return uint64((n+1)/2)*1500 + uint64(n/2)*64
}

// fillPlan shapes the TIBs a query workload runs against.
type fillPlan struct {
	perHost int        // records per agent
	flows   int        // recurring flows per agent; every 4th record is a one-shot flow instead
	steps   int        // virtual-time steps the records spread over
	stepDur types.Time // one step: data packets, half a step, FIN packets, half a step
}

// span is the virtual time the fill covers.
func (p fillPlan) span() types.Time { return types.Time(p.steps) * p.stepDur }

// fill brings every agent's TIB to the plan's shape through
// Agent.Receive and returns the records it caused, per agent — the flat
// list the oracle filters — plus the digest of the inputs.
func (f *fabric) fill(plan fillPlan, id ident) (truth [][]types.Record, digest uint64) {
	truth = make([][]types.Record, len(f.agents))
	for a := range truth {
		truth[a] = make([]types.Record, 0, plan.perHost)
	}
	// spec derives record r of agent a from its indices alone.
	spec := func(a, r int) (flow types.FlowID, rt *route, pi, n int) {
		fi := uint64(r % plan.flows)
		if r%4 == 3 {
			fi = uint64(plan.flows + r)
		}
		key := uint64(a)<<40 | fi
		rt = &f.routes[a][mix(key)%uint64(len(f.routes[a]))]
		pi = int(mix(key^uint64(r)<<20) % uint64(len(rt.paths)))
		n = 2 + int(mix(key^0xa5a5)%6)
		if mix(key^0x5a5a)%64 == 0 {
			n += 24 // an elephant, so top-k is not a field of ties
		}
		return id.flow(rt.src, f.agents[a].Host.IP, fi), rt, pi, n
	}
	digest = fnvOffset
	var pkt netsim.Packet
	for s := 0; s < plan.steps; s++ {
		t0 := f.sim.Now()
		half := t0 + plan.stepDur/2
		lo, hi := s*plan.perHost/plan.steps, (s+1)*plan.perHost/plan.steps
		for a, ag := range f.agents {
			for r := lo; r < hi; r++ {
				flow, rt, pi, n := spec(a, r)
				pkt = netsim.Packet{Flow: flow}
				for j := 0; j < n-1; j++ {
					pkt.Size, pkt.Hdr = pktSize(j), rt.hdrs[pi]
					ag.Receive(&pkt)
				}
				truth[a] = append(truth[a], types.Record{
					Flow: flow, Path: rt.paths[pi],
					STime: t0, ETime: half,
					Bytes: flowBytes(n), Pkts: uint64(n),
				})
				digest = fnv(digest, uint64(flow.SrcIP)<<32|uint64(flow.DstIP))
				digest = fnv(digest, uint64(flow.SrcPort)<<48|uint64(flow.DstPort)<<32|uint64(pi)<<16|uint64(n))
			}
		}
		f.sim.Run(half)
		for a, ag := range f.agents {
			for r := lo; r < hi; r++ {
				flow, rt, pi, n := spec(a, r)
				pkt = netsim.Packet{Flow: flow, Size: pktSize(n - 1), Fin: true, Hdr: rt.hdrs[pi]}
				ag.Receive(&pkt)
			}
		}
		f.sim.Run(t0 + plan.stepDur)
	}
	return truth, digest
}
