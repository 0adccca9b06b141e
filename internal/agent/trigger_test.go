package agent

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pathdump/internal/netsim"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// badRecord builds TIB record i with a 4-hop path, so a MaxPathLen 4
// conformance policy flags it.
func badRecord(i int) types.Record {
	st := types.Time(i) * types.Millisecond
	return types.Record{
		Flow:  types.FlowID{SrcIP: types.IP(1000 + i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: 6},
		Path:  types.Path{0, 8, 16, 9},
		STime: st, ETime: st + types.Millisecond,
		Bytes: 1, Pkts: 1,
	}
}

// TestIncrementalTriggerScansOnlyDelta: a periodic conformance query
// evaluates each run over only the records that arrived since the last
// run — alarms fire once per violation, quiet periods scan nothing, and
// the cumulative records-scanned telemetry tracks arrivals, not run
// count × TIB size.
func TestIncrementalTriggerScansOnlyDelta(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{StoreShards: 1, SegmentRecords: 4})
	h := r.sim.Topo.Hosts()[0]
	a := r.agents[h.ID]

	const period = 100 * types.Millisecond
	id := a.Install(query.Query{Op: query.OpConformance, MaxPathLen: 4}, period)

	// Ten pre-existing violations (crossing segment seals at 4 records).
	for i := 0; i < 10; i++ {
		a.Store.Add(badRecord(i))
	}
	r.sim.Run(period + types.Millisecond) // first periodic run
	if got := len(r.log.alarms); got != 10 {
		t.Fatalf("first run raised %d alarms, want 10 (one per pre-existing violation)", got)
	}
	st, ok := a.TriggerStats(id)
	if !ok {
		t.Fatal("no trigger stats for installed query")
	}
	if st.Runs != 1 || st.RecordsScanned != 10 || st.Watermark != 10 {
		t.Fatalf("after first run stats = %+v, want runs=1 scanned=10 watermark=10", st)
	}

	// Three new violations: the next run scans exactly those three.
	for i := 10; i < 13; i++ {
		a.Store.Add(badRecord(i))
	}
	r.sim.Run(2*period + types.Millisecond)
	if got := len(r.log.alarms); got != 13 {
		t.Fatalf("second run raised %d total alarms, want 13 (no re-alarms)", got)
	}
	st, _ = a.TriggerStats(id)
	if st.Runs != 2 || st.RecordsScanned != 13 || st.Watermark != 13 {
		t.Fatalf("after second run stats = %+v, want runs=2 scanned=13 watermark=13", st)
	}

	// Five quiet periods: nothing rescanned, nothing re-alarmed.
	r.sim.Run(7*period + types.Millisecond)
	if got := len(r.log.alarms); got != 13 {
		t.Fatalf("quiet periods raised %d total alarms, want 13", got)
	}
	st, _ = a.TriggerStats(id)
	if st.Runs != 2 || st.RecordsScanned != 13 {
		t.Fatalf("after quiet periods stats = %+v, want runs=2 scanned=13 (no rescans)", st)
	}

	// A conforming record advances the watermark without alarming.
	rec := badRecord(13)
	rec.Path = types.Path{0, 8, 9}
	a.Store.Add(rec)
	r.sim.Run(8*period + types.Millisecond)
	if got := len(r.log.alarms); got != 13 {
		t.Fatalf("conforming record raised alarms: %d total, want 13", got)
	}
	st, _ = a.TriggerStats(id)
	if st.Runs != 3 || st.RecordsScanned != 14 || st.Watermark != 14 {
		t.Fatalf("after conforming record stats = %+v, want runs=3 scanned=14 watermark=14", st)
	}

	if err := a.Uninstall(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.TriggerStats(id); ok {
		t.Fatal("trigger stats survived uninstall")
	}
}

// TestIncrementalTriggerSegmentPruning: a periodic run over a store with
// many sealed segments touches only the segments past the watermark —
// the rest are skipped whole (pruned) by sequence-bound comparison.
func TestIncrementalTriggerSegmentPruning(t *testing.T) {
	r := newRig(t, netsim.Config{}, Config{StoreShards: 1, SegmentRecords: 8})
	h := r.sim.Topo.Hosts()[0]
	a := r.agents[h.ID]

	const period = 100 * types.Millisecond
	a.Install(query.Query{Op: query.OpConformance, MaxPathLen: 4}, period)
	for i := 0; i < 64; i++ { // 8 sealed segments
		a.Store.Add(badRecord(i))
	}
	r.sim.Run(period + types.Millisecond) // first run consumes the backlog

	a.Store.Add(badRecord(64))
	sc0, sp0 := a.Store.SegmentStats()
	r.sim.Run(2*period + types.Millisecond)
	sc1, sp1 := a.Store.SegmentStats()
	if scanned := sc1 - sc0; scanned != 1 {
		t.Fatalf("delta run walked %d segments, want 1 (the active one)", scanned)
	}
	if pruned := sp1 - sp0; pruned != 8 {
		t.Fatalf("delta run pruned %d segments, want 8 (all sealed ones below the watermark)", pruned)
	}
}

// TestIncrementalTriggerRetriesFaultedWindow: a cold read fault inside a
// periodic run's window leaves the watermark where it was, so the window
// is evaluated again next period and a violation in the unreadable
// segment is reported once the segment reads again, not skipped. The
// fault is counted on TriggerStats and /metrics.
func TestIncrementalTriggerRetriesFaultedWindow(t *testing.T) {
	dir := t.TempDir()
	r := newRig(t, netsim.Config{}, Config{StoreShards: 1, SegmentRecords: 4, ColdDir: dir})
	h := r.sim.Topo.Hosts()[0]
	a := r.agents[h.ID]
	reg := obs.NewRegistry()
	a.RegisterMetrics(reg, &sync.Mutex{})
	gauge := func() string {
		t.Helper()
		prefix := fmt.Sprintf(`pathdump_trigger_faults{host="%d"} `, uint32(h.ID))
		for _, line := range strings.Split(reg.Expose(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		t.Fatal("/metrics lacks pathdump_trigger_faults")
		return ""
	}

	const period = 100 * types.Millisecond
	id := a.Install(query.Query{Op: query.OpConformance, MaxPathLen: 4}, period)
	// One violation (record 1) in the first sealed segment, the rest
	// conforming; then spill that segment alone to the cold tier.
	for i := 0; i < 10; i++ {
		rec := badRecord(i)
		if i != 1 {
			rec.Path = types.Path{0, 8, 9}
		}
		a.Store.Add(rec)
	}
	if segs, _, err := a.Store.SpillBefore(5 * types.Millisecond); err != nil || segs != 1 {
		t.Fatalf("spilled %d segments (err %v), want the first one", segs, err)
	}
	cold, err := filepath.Glob(filepath.Join(dir, "*", "*.cold"))
	if err != nil || len(cold) != 1 {
		t.Fatalf("cold files %v (err %v), want one", cold, err)
	}
	if err := os.Rename(cold[0], cold[0]+".away"); err != nil {
		t.Fatal(err)
	}

	r.sim.Run(period + types.Millisecond) // the first window faults
	if got := len(r.log.alarms); got != 0 {
		t.Fatalf("faulted run raised %d alarms, want 0", got)
	}
	st, _ := a.TriggerStats(id)
	if st.Watermark != 0 || st.Faults != 1 {
		t.Fatalf("after the faulted run stats = %+v, want watermark 0 (held) and faults 1", st)
	}
	if got := gauge(); got != "1" {
		t.Fatalf("pathdump_trigger_faults reads %s, want 1", got)
	}

	if err := os.Rename(cold[0]+".away", cold[0]); err != nil {
		t.Fatal(err)
	}
	r.sim.Run(2*period + types.Millisecond) // the window is retried whole
	if got := len(r.log.alarms); got != 1 || r.log.alarms[0].Flow != badRecord(1).Flow {
		t.Fatalf("retried run raised %v, want the one violation in the cold segment", r.log.alarms)
	}
	st, _ = a.TriggerStats(id)
	if st.Watermark != a.Store.LastSeq() || st.Faults != 1 || st.Runs != 2 {
		t.Fatalf("after the retried run stats = %+v, want watermark %d, faults 1, runs 2", st, a.Store.LastSeq())
	}
}

// TestByteBudgetRetention: Config.RetentionBytes bounds the store through
// the export path — an agent ingesting forever stays under its budget.
func TestByteBudgetRetention(t *testing.T) {
	const budget = 8 << 10
	r := newRig(t, netsim.Config{}, Config{StoreShards: 1, SegmentRecords: 8, RetentionBytes: budget})
	src := r.sim.Topo.Hosts()[0]
	h := r.sim.Topo.HostsAt(r.sim.Topo.ToRID(2, 0))[0]
	a := r.agents[h.ID]

	// Drive real traffic through the datapath so export runs the
	// retention hook: many short flows, each exported on FIN.
	for i := 0; i < 400; i++ {
		f := r.flow(src, h, uint16(2000+i))
		r.sim.Send(src.ID, &netsim.Packet{Flow: f, Size: 500, Fin: true})
	}
	r.sim.RunAll()
	if a.RecordsStored < 100 {
		t.Fatalf("datapath stored only %d records", a.RecordsStored)
	}
	if got := a.Store.SizeBytes(); got > budget {
		t.Fatalf("store sits at %d bytes, over the %d budget", got, budget)
	}
	if a.RecordsEvicted == 0 {
		t.Fatal("byte budget never evicted anything")
	}
}
