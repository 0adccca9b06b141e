package rpc

import (
	"context"
	"net/http/httptest"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// standbyRecord synthesises record i, one per millisecond of virtual time.
func standbyRecord(i int) types.Record {
	st := types.Time(i) * types.Millisecond
	return types.Record{
		Flow:  types.FlowID{SrcIP: types.IP(i % 100), DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: 6},
		Path:  types.Path{0, types.SwitchID(8 + i%4), 16},
		STime: st, ETime: st + types.Millisecond,
		Bytes: uint64(i), Pkts: 1,
	}
}

func countStore(s *tib.Store) int {
	n := 0
	s.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) { n++ })
	return n
}

// TestStandbyReplicaSync: a standby assembled over the HTTP snapshot
// endpoint — one full pull, then delta pulls that ship only the new
// records — tracks the live store exactly, and falls back to a full
// pull when the daemon's retention has run past its watermark.
func TestStandbyReplicaSync(t *testing.T) {
	store := tib.NewStoreConfig(tib.Config{SegmentSpan: 20 * types.Millisecond})
	for i := 0; i < 2000; i++ {
		store.Add(standbyRecord(i))
	}
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: store}}).Handler())
	defer srv.Close()
	tr := &HTTPTransport{URLs: map[types.HostID]string{1: srv.URL}}

	ctx := context.Background()
	rep := NewStandbyReplica(tr, 1)
	if err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := countStore(rep.Store); got != 2000 {
		t.Fatalf("after first sync replica holds %d records, want 2000", got)
	}
	if st := rep.Stats(); st.FullPulls != 1 || st.Syncs != 1 {
		t.Fatalf("first sync stats = %+v, want one full pull", st)
	}

	// Steady state: new data arrives, the next sync ships only a delta.
	for i := 2000; i < 2500; i++ {
		store.Add(standbyRecord(i))
	}
	fullBytes := func() int64 {
		var c countWriter
		if err := store.Snapshot(&c); err != nil {
			t.Fatal(err)
		}
		return c.n
	}()
	if err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.FullPulls != 1 {
		t.Fatalf("delta sync resorted to a full pull: %+v", st)
	}
	if st.DeltaBytes == 0 || st.DeltaBytes >= fullBytes {
		t.Fatalf("delta shipped %d bytes vs %d full — not incremental", st.DeltaBytes, fullBytes)
	}
	if got := countStore(rep.Store); got != 2500 {
		t.Fatalf("after delta sync replica holds %d records, want 2500", got)
	}
	if st.LastSeq != store.LastSeq() {
		t.Fatalf("replica watermark %d, source %d", st.LastSeq, store.LastSeq())
	}

	// Outrun retention: evict the source far past the replica's
	// watermark; the daemon answers the delta request with a full
	// stream, and the replica still converges.
	for i := 2500; i < 3000; i++ {
		store.Add(standbyRecord(i))
	}
	if segs, _ := store.EvictBefore(2800 * types.Millisecond); segs == 0 {
		t.Fatal("eviction freed nothing")
	}
	if err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := countStore(rep.Store), countStore(store); got != want {
		t.Fatalf("after retention-outrun sync replica holds %d records, want %d", got, want)
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
