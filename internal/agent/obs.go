// Agent-plane metrics: one registration call per agent exposes the
// ingest datapath (§5.3's overhead counters), the TIB store's segment
// lifecycle, the cold tier, and installed-query trigger progress on a
// shared obs.Registry, labelled by host.

package agent

import (
	"fmt"
	"sync"

	"pathdump/internal/obs"
)

// RegisterMetrics exposes this agent on r. The agent's public counters
// (PacketsSeen, RecordsStored, …) are plain fields written on the
// simulation goroutine, so every scrape-time read takes mu — pass the
// same lock the caller holds while stepping the simulation (pathdumpd's
// simulation mutex). Trajectory memory, cache, store and trigger
// telemetry carry their own synchronisation and bypass it. All series
// are gauges computed at scrape time; the cumulative ones never decrease.
func (a *Agent) RegisterMetrics(r *obs.Registry, mu sync.Locker) {
	hl := obs.L("host", fmt.Sprintf("%d", uint32(a.Host.ID)))
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc("pathdump_agent_packets_seen", "Packets the agent's datapath has processed (cumulative).",
		locked(func() float64 { return float64(a.PacketsSeen) }), hl)
	r.GaugeFunc("pathdump_agent_bytes_seen", "Payload bytes the agent's datapath has processed (cumulative).",
		locked(func() float64 { return float64(a.BytesSeen) }), hl)
	r.GaugeFunc("pathdump_agent_records_stored", "Trajectory records committed to the TIB (cumulative).",
		locked(func() float64 { return float64(a.RecordsStored) }), hl)
	r.GaugeFunc("pathdump_agent_records_evicted", "Records dropped by retention or byte-budget eviction (cumulative).",
		locked(func() float64 { return float64(a.RecordsEvicted) }), hl)
	r.GaugeFunc("pathdump_agent_invalid_trajectories", "Packets whose trajectory failed path validation (cumulative).",
		locked(func() float64 { return float64(a.InvalidTraj) }), hl)
	r.GaugeFunc("pathdump_agent_spill_errors", "Failed cold-tier spill attempts (cumulative).",
		locked(func() float64 { return float64(a.SpillErrors) }), hl)

	r.GaugeFunc("pathdump_agent_memory_entries", "Per-path flow records open in the trajectory memory.",
		func() float64 { return float64(a.Mem.Len()) }, hl)
	r.GaugeFunc("pathdump_agent_cache_hits", "Header-to-path lookups the trajectory cache served (cumulative).",
		func() float64 { hits, _ := a.Cache.Stats(); return float64(hits) }, hl)
	r.GaugeFunc("pathdump_agent_cache_misses", "Header-to-path lookups that walked the topology (cumulative).",
		func() float64 { _, misses := a.Cache.Stats(); return float64(misses) }, hl)

	r.GaugeFunc("pathdump_tib_records", "Records resident in the TIB store.",
		func() float64 { return float64(a.Store.Len()) }, hl)
	r.GaugeFunc("pathdump_tib_resident_bytes", "Bytes the TIB store's records occupy in memory: sealed blocks, active-segment buffers, cold blooms.",
		func() float64 { return float64(a.Store.ResidentBytes()) }, hl)
	r.GaugeFunc("pathdump_tib_segments", "Segments in the TIB store (active + sealed + cold).",
		func() float64 { return float64(a.Store.Segments()) }, hl)
	r.GaugeFunc("pathdump_tib_seals", "Segments sealed since the store was built (cumulative).",
		func() float64 { return float64(a.Store.Seals()) }, hl)
	r.GaugeFunc("pathdump_tib_compactions", "Completed compaction passes (cumulative).",
		func() float64 { return float64(a.Store.Compactions()) }, hl)
	r.GaugeFunc("pathdump_tib_cold_segments", "Segments currently spilled to the cold tier.",
		func() float64 { return float64(a.Store.ColdStats().Segments) }, hl)
	r.GaugeFunc("pathdump_tib_cold_loads", "Cold-tier demand loads served (cumulative).",
		func() float64 { return float64(a.Store.ColdStats().Loads) }, hl)
	r.GaugeFunc("pathdump_tib_cold_faults", "Failed cold-tier demand loads (cumulative).",
		func() float64 { return float64(a.Store.ColdStats().Faults) }, hl)

	r.GaugeFunc("pathdump_triggers_installed", "Installed (continuously monitored) queries.",
		func() float64 { n, _ := a.TriggerTotals(); return float64(n) }, hl)
	r.GaugeFunc("pathdump_trigger_runs", "Incremental trigger evaluations across all installed queries (cumulative).",
		func() float64 { _, st := a.TriggerTotals(); return float64(st.Runs) }, hl)
	r.GaugeFunc("pathdump_trigger_records_scanned", "Records scanned by incremental trigger runs (cumulative).",
		func() float64 { _, st := a.TriggerTotals(); return float64(st.RecordsScanned) }, hl)
	r.GaugeFunc("pathdump_trigger_faults", "Incremental trigger runs cut short by a cold read fault; each window is retried next period (cumulative).",
		func() float64 { _, st := a.TriggerTotals(); return float64(st.Faults) }, hl)
	r.GaugeFunc("pathdump_trigger_min_watermark", "Lowest arrival-sequence watermark across installed queries (the furthest-behind trigger).",
		func() float64 { _, st := a.TriggerTotals(); return float64(st.Watermark) }, hl)
}
