package apps

import (
	"context"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// IncastEvent describes one detected many-to-one microburst: a window in
// which an anomalous number of distinct sources all started flows toward
// the same receiver — the partition-aggregate fan-in that collapses
// shallow ToR buffers.
type IncastEvent struct {
	// Receiver is the aggregator host whose TIB showed the burst.
	Receiver types.HostID
	// Window is the tightest interval containing the synchronized starts.
	Window types.TimeRange
	// Sources counts distinct source addresses in the window.
	Sources int
	// Flows lists the participating flows (sorted, deduplicated).
	Flows []types.FlowID
	// Bytes sums the participating flows' bytes at the receiver.
	Bytes uint64
}

// DetectIncast scans a receiver's TIB for a microburst: any sliding
// window of the given length in which flows from at least minSources
// distinct sources started. It needs only one OpRecords query at the
// receiver — flow start times (Record.STime) are already edge-local
// state, which is exactly the paper's point about debugging at the
// end host. On detection it raises one INCAST alarm through the
// controller pipeline; repeated detections of the same burst fold into
// one history entry under the suppression window.
func DetectIncast(c *controller.Controller, receiver types.HostID, window types.Time, minSources int, tr types.TimeRange) (*IncastEvent, error) {
	recv := c.Topo.Host(receiver)
	if recv == nil {
		return nil, errNoData("receiver")
	}
	res, err := c.QueryHostContext(context.Background(), receiver, query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	// One start per flow: a flow's earliest record is its arrival.
	starts := make(map[types.FlowID]types.Time)
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Flow.DstIP != recv.IP {
			continue
		}
		if st, ok := starts[rec.Flow]; !ok || rec.STime < st {
			starts[rec.Flow] = rec.STime
		}
	}
	if len(starts) == 0 {
		return nil, errNoData("incoming flows")
	}
	type arrival struct {
		at   types.Time
		flow types.FlowID
	}
	arr := make([]arrival, 0, len(starts))
	for f, at := range starts {
		arr = append(arr, arrival{at, f})
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].at != arr[j].at {
			return arr[i].at < arr[j].at
		}
		return arr[i].flow.String() < arr[j].flow.String()
	})
	// Slide the window over the sorted arrivals; take the densest window
	// (by distinct sources) that meets the threshold.
	var best *IncastEvent
	for lo := 0; lo < len(arr); lo++ {
		srcs := make(map[types.IP]bool)
		var flows []types.FlowID
		for hi := lo; hi < len(arr) && arr[hi].at-arr[lo].at <= window; hi++ {
			srcs[arr[hi].flow.SrcIP] = true
			flows = append(flows, arr[hi].flow)
			if len(srcs) >= minSources && (best == nil || len(srcs) > best.Sources) {
				ev := &IncastEvent{
					Receiver: receiver,
					Window:   types.TimeRange{From: arr[lo].at, To: arr[hi].at},
					Sources:  len(srcs),
					Flows:    append([]types.FlowID(nil), flows...),
				}
				best = ev
			}
		}
	}
	if best == nil {
		return nil, nil
	}
	sort.Slice(best.Flows, func(i, j int) bool { return best.Flows[i].String() < best.Flows[j].String() })
	for _, f := range best.Flows {
		cnt, err := c.QueryHostContext(context.Background(), receiver, query.Query{Op: query.OpCount, Flow: f, Range: tr})
		if err != nil {
			return nil, err
		}
		best.Bytes += cnt.Bytes
	}
	// The alarm key carries only the receiver (zero flow apart from the
	// destination), so re-detections of the same burst dedup.
	c.RaiseAlarm(types.Alarm{
		Host:   receiver,
		Flow:   types.FlowID{DstIP: recv.IP},
		Reason: types.ReasonIncast,
		At:     c.VirtualNow(),
	})
	return best, nil
}
