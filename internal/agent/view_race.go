//go:build race

package agent

import "pathdump/internal/tib"

// poison overwrites a released view's scan memory with byte and packet
// counts no host produces: a reader that kept the view, or a pointer into
// it, past release returns sums a test cannot mistake for an answer.
func (v *agentView) poison() {
	v.rec.Bytes, v.rec.Pkts = ^uint64(0), ^uint64(0)
	live := v.live[:cap(v.live)]
	for i := range live {
		live[i] = tib.MemEntry{Bytes: ^uint64(0), Pkts: ^uint64(0)}
	}
}
