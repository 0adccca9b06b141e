package apps

import (
	"context"
	"sort"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// SwitchBytes ranks one switch by the attack bytes observed crossing it.
type SwitchBytes struct {
	Switch types.SwitchID
	Bytes  uint64
}

// DDoSLocalization extends the §2.3 DDoS source ranking with in-network
// localisation: which switches the top sources' traffic concentrates
// through, computed from the victim's own path records (top-k path
// aggregates). The shared upstream aggregation points are where an
// operator installs filters — far cheaper than per-source ACLs at the
// edge.
type DDoSLocalization struct {
	// Victim is the targeted host.
	Victim types.HostID
	// Sources ranks per-source bytes at the victim (largest first).
	Sources []query.FlowBytes
	// TotalBytes is everything the victim received in the range.
	TotalBytes uint64
	// TopShare is the byte fraction the ranked top sources contribute.
	TopShare float64
	// Aggregates ranks switches by attack bytes traversing them,
	// excluding the victim's own ToR (every path crosses that).
	Aggregates []SwitchBytes
	// Suspected reports whether the concentration crossed the caller's
	// thresholds: at least minSources distinct top sources jointly
	// contributing at least shareThresh of the victim's bytes.
	Suspected bool
}

// LocalizeDDoS runs the DDoS diagnosis at a victim: rank sources, take
// the top topK, aggregate their recorded paths into per-switch byte
// totals, and decide whether the pattern looks like a distributed
// attack (≥ minSources sources jointly ≥ shareThresh of bytes). On
// suspicion it raises one DDOS_SUSPECT alarm through the controller
// pipeline; repeated detections at the same victim fold into one
// history entry under the suppression window.
func LocalizeDDoS(c *controller.Controller, victim types.HostID, tr types.TimeRange, topK int, shareThresh float64, minSources int) (*DDoSLocalization, error) {
	recv := c.Topo.Host(victim)
	if recv == nil {
		return nil, errNoData("victim")
	}
	res, err := c.QueryHostContext(context.Background(), victim, query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: tr})
	if err != nil {
		return nil, err
	}
	perSrc := make(map[types.IP]uint64)
	var total uint64
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Flow.DstIP != recv.IP {
			continue
		}
		perSrc[rec.Flow.SrcIP] += rec.Bytes
		total += rec.Bytes
	}
	if total == 0 {
		return nil, errNoData("victim traffic")
	}
	loc := &DDoSLocalization{Victim: victim, TotalBytes: total}
	for src, bytes := range perSrc {
		loc.Sources = append(loc.Sources, query.FlowBytes{Flow: types.FlowID{SrcIP: src}, Bytes: bytes})
	}
	sort.Slice(loc.Sources, func(i, j int) bool {
		if loc.Sources[i].Bytes != loc.Sources[j].Bytes {
			return loc.Sources[i].Bytes > loc.Sources[j].Bytes
		}
		return loc.Sources[i].Flow.SrcIP < loc.Sources[j].Flow.SrcIP
	})
	if topK > 0 && len(loc.Sources) > topK {
		loc.Sources = loc.Sources[:topK]
	}
	topSet := make(map[types.IP]bool, len(loc.Sources))
	var topBytes uint64
	for _, s := range loc.Sources {
		topSet[s.Flow.SrcIP] = true
		topBytes += s.Bytes
	}
	loc.TopShare = float64(topBytes) / float64(total)

	// Top-k path aggregates: fold the top sources' recorded paths into
	// per-switch byte totals. The victim's ToR carries everything by
	// construction, so it is excluded from the ranking.
	perSwitch := make(map[types.SwitchID]uint64)
	victimToR := recv.ToR
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Flow.DstIP != recv.IP || !topSet[rec.Flow.SrcIP] {
			continue
		}
		for _, sw := range rec.Path {
			if sw != victimToR {
				perSwitch[sw] += rec.Bytes
			}
		}
	}
	for sw, bytes := range perSwitch {
		loc.Aggregates = append(loc.Aggregates, SwitchBytes{Switch: sw, Bytes: bytes})
	}
	sort.Slice(loc.Aggregates, func(i, j int) bool {
		if loc.Aggregates[i].Bytes != loc.Aggregates[j].Bytes {
			return loc.Aggregates[i].Bytes > loc.Aggregates[j].Bytes
		}
		return loc.Aggregates[i].Switch < loc.Aggregates[j].Switch
	})

	loc.Suspected = len(loc.Sources) >= minSources && loc.TopShare >= shareThresh
	if loc.Suspected {
		c.RaiseAlarm(types.Alarm{
			Host:   victim,
			Flow:   types.FlowID{DstIP: recv.IP},
			Reason: types.ReasonDDoS,
			At:     c.VirtualNow(),
		})
	}
	return loc, nil
}
