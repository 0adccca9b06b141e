package apps

import (
	"context"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// SenderStat is one sender's view in an outcast diagnosis: goodput and
// hop count toward the shared receiver (Fig. 10).
type SenderStat struct {
	Flow          types.FlowID
	Bytes         uint64
	Duration      types.Time
	ThroughputBps float64
	Hops          int
}

// OutcastDiagnosis is the §4.6 result.
type OutcastDiagnosis struct {
	Receiver types.HostID
	Senders  []SenderStat
	// Victim is the most-penalised flow.
	Victim SenderStat
	// IsOutcast reports whether the pattern fits TCP outcast: the flow
	// closest to the receiver (fewest hops) sees the lowest throughput
	// while competing with a larger group on another input port.
	IsOutcast bool
}

// OutcastWatcher accumulates POOR_PERF alarms and fires a diagnosis once
// enough distinct sources complain about one destination — the paper
// requires a minimum of 10 alerts from different sources (§4.6).
type OutcastWatcher struct {
	c         *controller.Controller
	minAlerts int
	perDst    map[types.IP]map[types.IP]bool
	onDiag    func(*OutcastDiagnosis)
	fired     map[types.IP]bool
}

// NewOutcastWatcher registers the watcher on the alarm stream; onDiag
// fires at most once per destination.
func NewOutcastWatcher(c *controller.Controller, minAlerts int, onDiag func(*OutcastDiagnosis)) *OutcastWatcher {
	w := &OutcastWatcher{
		c: c, minAlerts: minAlerts,
		perDst: make(map[types.IP]map[types.IP]bool),
		onDiag: onDiag,
		fired:  make(map[types.IP]bool),
	}
	c.OnAlarm(func(a types.Alarm) {
		if a.Reason != types.ReasonPoorPerf {
			return
		}
		dst := a.Flow.DstIP
		if w.fired[dst] {
			return
		}
		srcs := w.perDst[dst]
		if srcs == nil {
			srcs = make(map[types.IP]bool)
			w.perDst[dst] = srcs
		}
		srcs[a.Flow.SrcIP] = true
		if len(srcs) >= w.minAlerts {
			w.fired[dst] = true
			if d, err := DiagnoseOutcast(w.c, dst, types.AllTime); err == nil && w.onDiag != nil {
				w.onDiag(d)
			}
		}
	})
	return w
}

// DiagnoseOutcast queries the receiver's TIB for every incoming flow's
// bytes, duration and path, computes per-sender throughput, and matches
// the outcast profile: the sender closest to the receiver is the most
// highly penalised (§4.6).
func DiagnoseOutcast(c *controller.Controller, receiver types.IP, tr types.TimeRange) (*OutcastDiagnosis, error) {
	dst := c.Topo.HostByIP(receiver)
	if dst == nil {
		return nil, errNoData("receiver")
	}
	flows, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpFlows, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	d := &OutcastDiagnosis{Receiver: dst.ID}
	seen := make(map[types.FlowID]bool)
	for _, fl := range flows.Flows {
		if seen[fl.ID] || fl.ID.Proto != types.ProtoTCP {
			continue
		}
		seen[fl.ID] = true
		cnt, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpCount, Flow: fl.ID, Range: tr})
		if err != nil {
			return nil, err
		}
		dur, err := c.QueryHostContext(context.Background(), dst.ID, query.Query{Op: query.OpDuration, Flow: fl.ID, Range: tr})
		if err != nil {
			return nil, err
		}
		st := SenderStat{Flow: fl.ID, Bytes: cnt.Bytes, Duration: dur.Duration, Hops: len(fl.Path)}
		if dur.Duration > 0 {
			st.ThroughputBps = float64(cnt.Bytes) * 8 / dur.Duration.Seconds()
		}
		d.Senders = append(d.Senders, st)
	}
	if len(d.Senders) == 0 {
		return nil, errNoData("incoming flows")
	}
	sort.Slice(d.Senders, func(i, j int) bool {
		return d.Senders[i].Flow.String() < d.Senders[j].Flow.String()
	})
	victim := d.Senders[0]
	minHops := d.Senders[0].Hops
	for _, s := range d.Senders[1:] {
		if s.ThroughputBps < victim.ThroughputBps {
			victim = s
		}
		if s.Hops < minHops {
			minHops = s.Hops
		}
	}
	d.Victim = victim
	d.IsOutcast = len(d.Senders) >= 3 && victim.Hops == minHops
	return d, nil
}
