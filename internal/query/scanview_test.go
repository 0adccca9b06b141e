package query

import (
	"context"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// deltaRecord builds record i: flow keyed by i, 3-hop path through
// switch i%4, 1 ms of activity starting at i ms.
func deltaRecord(i int) types.Record {
	st := types.Time(i) * types.Millisecond
	return types.Record{
		Flow:  types.FlowID{SrcIP: types.IP(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: 6},
		Path:  types.Path{types.SwitchID(i % 4), 10, 20},
		STime: st, ETime: st + types.Millisecond,
		Bytes: uint64(100 * i), Pkts: uint64(i),
	}
}

// TestScanViewWindow proves a windowed ScanView evaluates every derived
// op over only the (MinSeq, MaxSeq] delta — the incremental-trigger
// evaluation path — and that results match a full view restricted to the
// same records.
func TestScanViewWindow(t *testing.T) {
	s := tib.NewStoreConfig(tib.Config{Shards: 1, SegmentRecords: 4})
	for i := 1; i <= 20; i++ {
		s.Add(deltaRecord(i))
	}
	store := StoreView{S: s}
	delta := ScanView{
		Scan:   store.ScanRecords,
		Window: Predicate{MinSeq: 15, MaxSeq: 20},
	}

	// OpRecords over the delta: exactly records 16..20.
	res := execute(t, Query{Op: OpRecords, Link: types.AnyLink}, delta)
	if len(res.Records) != 5 {
		t.Fatalf("delta records = %d, want 5", len(res.Records))
	}
	for i, rec := range res.Records {
		if want := uint64(100 * (16 + i)); rec.Bytes != want {
			t.Fatalf("delta record %d has Bytes %d, want %d", i, rec.Bytes, want)
		}
	}

	// Flows: 5 distinct flows in the window.
	if got := len(execute(t, Query{Op: OpFlows, Link: types.AnyLink}, delta).Flows); got != 5 {
		t.Fatalf("delta flows = %d, want 5", got)
	}

	// Count of an in-window flow vs an out-of-window one.
	in := deltaRecord(18).Flow
	out := deltaRecord(3).Flow
	if res := execute(t, Query{Op: OpCount, Flow: in}, delta); res.Bytes != 1800 {
		t.Fatalf("in-window count = %d, want 1800", res.Bytes)
	}
	if res := execute(t, Query{Op: OpCount, Flow: out}, delta); res.Bytes != 0 {
		t.Fatalf("out-of-window count = %d, want 0", res.Bytes)
	}

	// Conformance over the delta flags only new records' paths.
	res = execute(t, Query{Op: OpConformance, MaxPathLen: 3}, delta)
	if len(res.Violations) != 5 {
		t.Fatalf("delta conformance found %d violations, want 5", len(res.Violations))
	}

	// TopK over the delta ranks only the new flows.
	res = execute(t, Query{Op: OpTopK, K: 3}, delta)
	if len(res.Top) != 3 || res.Top[0].Bytes != 2000 {
		t.Fatalf("delta topk = %+v, want top Bytes 2000", res.Top)
	}

	// Duration/Paths honour the window too.
	if d := execute(t, Query{Op: OpDuration, Flow: in}, delta).Duration; d != types.Millisecond {
		t.Fatalf("in-window duration = %v, want 1ms", d)
	}
	if p := execute(t, Query{Op: OpPaths, Flow: out, Link: types.AnyLink}, delta).Paths; p != nil {
		t.Fatalf("out-of-window paths = %v, want none", p)
	}

	// PoorTCPFlows: nil without a monitor, delegated with one.
	if got, err := delta.PoorTCPFlows(3); got != nil || err != nil {
		t.Fatalf("monitorless ScanView returned poor flows %v, err %v", got, err)
	}
	delta.Poor = func(int) []types.FlowID { return []types.FlowID{in} }
	if got, err := delta.PoorTCPFlows(3); len(got) != 1 || got[0] != in || err != nil {
		t.Fatalf("delegated poor flows = %v, err %v", got, err)
	}
}

// TestScanViewWindowMerge: an op predicate carrying its own sequence
// bounds intersects with the view window rather than replacing it.
func TestScanViewWindowMerge(t *testing.T) {
	s := tib.NewStoreConfig(tib.Config{Shards: 1, SegmentRecords: 4})
	for i := 1; i <= 10; i++ {
		s.Add(deltaRecord(i))
	}
	store := StoreView{S: s}
	v := ScanView{Scan: store.ScanRecords, Window: Predicate{MinSeq: 4, MaxSeq: 8}}
	var n int
	v.ScanRecords(context.Background(), Predicate{Link: types.AnyLink, Range: types.AllTime, MinSeq: 6, MaxSeq: 9}, func(*types.Record) { n++ })
	if n != 2 { // intersection (6, 8]
		t.Fatalf("merged window visited %d records, want 2", n)
	}
}
