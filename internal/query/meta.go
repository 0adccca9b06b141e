package query

import "time"

// Meta is what one host's evaluation cost, measured at the host: the
// records resident, the segments the scan walked and pruned by time-bound
// intersection, the cold segments it demand-loaded and its wall time. It
// feeds the controller's ExecStats, the §5.2 response-time model (its
// pruned-fraction term included) and the reply's scan span. Every reply
// shape carries it — the wire frame whole, the JSON spelling without the
// cold loads and the scan time.
type Meta struct {
	RecordsScanned  int           `json:"records_scanned"`
	SegmentsScanned int           `json:"segments_scanned,omitempty"`
	SegmentsPruned  int           `json:"segments_pruned,omitempty"`
	ColdLoads       int           `json:"-"`
	ScanTime        time.Duration `json:"-"`
}

// Add folds d into m field by field, as a streamed records section's end
// marker adds the telemetry learned after the scan to its head's.
func (m *Meta) Add(d Meta) {
	m.RecordsScanned += d.RecordsScanned
	m.SegmentsScanned += d.SegmentsScanned
	m.SegmentsPruned += d.SegmentsPruned
	m.ColdLoads += d.ColdLoads
	m.ScanTime += d.ScanTime
}
