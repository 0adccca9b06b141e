package controller

import (
	"pathdump/internal/netsim"
	"pathdump/internal/types"
)

// LoopEvent describes a detected routing loop (§4.5).
type LoopEvent struct {
	Flow types.FlowID
	Seq  uint64
	// At is the switch whose ASIC punted the packet.
	At types.SwitchID
	// DetectedAt is when the controller concluded "loop".
	DetectedAt types.Time
	// Repeated is the sampled link that appeared twice.
	Repeated types.LinkID
	// Rounds is how many punts it took (1 for loops short enough that a
	// single header already repeats; 2+ when the controller had to strip
	// tags and reinject, §4.5 "detecting loops of any size").
	Rounds int
}

type loopKey struct {
	flow types.FlowID
	seq  uint64
	ack  bool
}

// OnLoop registers a routing-loop handler.
func (c *Controller) OnLoop(fn func(LoopEvent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loopFns = append(c.loopFns, fn)
}

// Trap implements netsim.TrapHandler. A packet arrives here when its VLAN
// stack exceeded what the switch ASIC can parse. The controller decodes
// the sampled link IDs (it has the topology and the srcIP) and checks for
// a repeated link — the signature of a loop. If none repeats, it stores
// the links, strips the tags, and sends the packet back to the switch; a
// looping packet returns with fresh tags whose links overlap the stored
// ones, revealing loops of any size (§4.5).
func (c *Controller) Trap(at types.SwitchID, pkt *netsim.Packet) {
	// The trap path runs under the controller's alarm context: a
	// shutting-down controller must neither dispatch new alarms nor
	// schedule reinjections it will never see complete.
	ctx := c.alarmContext()
	if ctx.Err() != nil {
		return
	}
	k := loopKey{flow: pkt.Flow, seq: pkt.Seq, ack: pkt.Ack}
	c.mu.Lock()
	prev, seen := c.loopState[k]
	c.mu.Unlock()

	cur := c.decodeLinks(pkt)
	if dup, ok := findRepeat(prev, cur); ok {
		rounds := 1
		if seen {
			rounds = 2
		}
		c.mu.Lock()
		delete(c.loopState, k)
		fns := append(make([]func(LoopEvent), 0, len(c.loopFns)), c.loopFns...)
		c.mu.Unlock()
		ev := LoopEvent{
			Flow: pkt.Flow, Seq: pkt.Seq, At: at,
			DetectedAt: c.now(), Repeated: dup, Rounds: rounds,
		}
		c.RaiseAlarmContext(ctx, types.Alarm{Flow: pkt.Flow, Reason: types.ReasonLoop, At: ev.DetectedAt})
		for _, fn := range fns {
			if ctx.Err() != nil {
				return
			}
			fn(ev)
		}
		return
	}

	// No repeat yet: remember what we saw, strip the tags, reinject
	// after the controller→switch leg of the slow path.
	c.mu.Lock()
	c.loopState[k] = append(append([]types.LinkID(nil), prev...), cur...)
	c.mu.Unlock()
	c.RaiseAlarmContext(ctx, types.Alarm{Flow: pkt.Flow, Reason: types.ReasonLongPath, At: c.now(), Paths: nil})
	if c.sim != nil && ctx.Err() == nil {
		pkt.Hdr.VLANs = nil
		c.sim.After(c.sim.Config().PuntDelay/2, func() { c.sim.Reinject(at, pkt) })
	}
}

// decodeLinks converts the trapped packet's VLAN tags into concrete
// sampled links; tags that fail to decode become synthetic one-sided
// links so raw-value comparison still works as a fallback.
func (c *Controller) decodeLinks(pkt *netsim.Packet) []types.LinkID {
	if c.sim != nil {
		links, err := c.sim.Scheme.SampledLinks(pkt.Flow.SrcIP, pkt.Flow.DstIP, pkt.Hdr)
		if err == nil || len(links) > 0 {
			return links
		}
	}
	out := make([]types.LinkID, len(pkt.Hdr.VLANs))
	for i, v := range pkt.Hdr.VLANs {
		out[i] = types.LinkID{A: types.WildcardSwitch, B: types.SwitchID(v)}
	}
	return out
}

func (c *Controller) now() types.Time {
	if c.sim != nil {
		return c.sim.Now()
	}
	return 0
}

// findRepeat looks for a link repeated within cur or shared between prev
// and cur.
func findRepeat(prev, cur []types.LinkID) (types.LinkID, bool) {
	seen := make(map[types.LinkID]bool, len(prev)+len(cur))
	for _, v := range prev {
		seen[v] = true
	}
	for _, v := range cur {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	return types.LinkID{}, false
}
