package netsim

import "pathdump/internal/types"

// dropCause classifies packet losses. Silent and blackhole drops update
// only the simulator-side ground truth — the debugging applications must
// localise them from end-host evidence alone, exactly as in the paper.
type dropCause uint8

const (
	dropCongestion dropCause = iota // drop-tail queue overflow
	dropSilent                      // faulty interface, random
	dropBlackhole                   // faulty interface, total
	dropNoRoute                     // no live next hop / admin-down link
	dropTTL                         // hop budget exhausted (loops)
	dropImpaired                    // injected impairment (loss / zero rate)
	numDropCauses
)

// Stats aggregates simulator ground truth. Debugging applications never
// read it; tests and `go run ./cmd/experiments` use it to score
// recall/precision.
type Stats struct {
	Delivered      uint64
	DeliveredBytes uint64
	Punts          uint64

	dropsByCause [numDropCauses]uint64
	dropsByLink  map[linkKey]uint64
}

func newStats() Stats {
	return Stats{dropsByLink: make(map[linkKey]uint64)}
}

func (st *Stats) drop(cause dropCause, from, to NodeID) {
	st.dropsByCause[cause]++
	st.dropsByLink[linkKey{from, to}]++
}

// CongestionDrops returns queue-overflow losses.
func (st *Stats) CongestionDrops() uint64 { return st.dropsByCause[dropCongestion] }

// SilentDrops returns losses at silently faulty interfaces.
func (st *Stats) SilentDrops() uint64 { return st.dropsByCause[dropSilent] }

// BlackholeDrops returns losses at blackholed interfaces.
func (st *Stats) BlackholeDrops() uint64 { return st.dropsByCause[dropBlackhole] }

// NoRouteDrops returns packets with no live next hop.
func (st *Stats) NoRouteDrops() uint64 { return st.dropsByCause[dropNoRoute] }

// TTLDrops returns packets that exhausted their hop budget.
func (st *Stats) TTLDrops() uint64 { return st.dropsByCause[dropTTL] }

// ImpairedDrops returns losses caused by an injected Impairment — random
// loss probability or a zero-bandwidth throttle.
func (st *Stats) ImpairedDrops() uint64 { return st.dropsByCause[dropImpaired] }

// TotalDrops sums every loss cause.
func (st *Stats) TotalDrops() uint64 {
	var n uint64
	for _, c := range st.dropsByCause {
		n += c
	}
	return n
}

// LinkDrops returns the loss count on the directed switch-switch link a→b.
func (st *Stats) LinkDrops(a, b types.SwitchID) uint64 {
	return st.dropsByLink[linkKey{SwitchNode(a), SwitchNode(b)}]
}

// Stats returns a pointer to the simulator's counters.
func (s *Sim) Stats() *Stats { return &s.stats }
