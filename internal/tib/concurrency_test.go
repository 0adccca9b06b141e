package tib

import (
	"sync"
	"testing"

	"pathdump/internal/types"
)

// stressRecord builds a deterministic record for writer w, iteration i.
func stressRecord(w, i int) types.Record {
	f := types.FlowID{
		SrcIP: types.IP(w<<16 | i), DstIP: 99,
		SrcPort: uint16(i), DstPort: 80, Proto: 6,
	}
	return types.Record{
		Flow:  f,
		Path:  types.Path{types.SwitchID(i % 8), types.SwitchID(8 + i%8), types.SwitchID(16 + i%4)},
		STime: types.Time(i), ETime: types.Time(i + 10),
		Bytes: uint64(100 + i), Pkts: 1,
	}
}

// TestStoreConcurrentAddAndScan hammers one store with parallel ingest and
// every flavour of concurrent read — the exact interleaving the sharded
// TIB exists to make safe. Run under -race this proves the striped locks
// cover the full read surface; afterwards the contents must be complete.
func TestStoreConcurrentAddAndScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store *Store
	}{
		{"indexed", NewStore()},
		{"single-shard", NewStoreConfig(Config{Shards: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.store
			const (
				writers   = 8
				perWriter = 2000
				readers   = 8
			)
			var readGroup, writeGroup sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				readGroup.Add(1)
				go func(r int) {
					defer readGroup.Done()
					link := types.LinkID{A: types.SwitchID(r % 8), B: types.SwitchID(8 + r%8)}
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = s.Flows(link, types.AllTime)
						_ = s.Len()
						_, _ = s.Count(types.Flow{ID: stressRecord(r, 7).Flow}, types.AllTime)
						prev := uint64(0)
						s.Scan(nil, types.AnyLink, types.AllTime, func(rec *types.Record) {
							// Global insertion order must hold even
							// mid-ingest: bytes encode per-writer order
							// only, so just touch the record.
							prev += rec.Pkts
						})
						_ = prev
					}
				}(r)
			}
			for w := 0; w < writers; w++ {
				writeGroup.Add(1)
				go func(w int) {
					defer writeGroup.Done()
					for i := 0; i < perWriter; i++ {
						s.Add(stressRecord(w, i))
					}
				}(w)
			}
			writeGroup.Wait()
			close(stop)
			readGroup.Wait()

			if got := s.Len(); got != writers*perWriter {
				t.Fatalf("Len = %d, want %d", got, writers*perWriter)
			}
			// Every record is queryable afterwards.
			for w := 0; w < writers; w++ {
				f := stressRecord(w, 123).Flow
				if b, k := s.Count(types.Flow{ID: f}, types.AllTime); b != 223 || k != 1 {
					t.Fatalf("writer %d record lost: count=%d/%d", w, b, k)
				}
			}
		})
	}
}

// TestScansBesideAddSeePrefixes is the same-shard half of the above: four
// writers append to one shard — its active segment growing and sealing,
// its page table handed on, under the scans — while listed flow scans,
// listed link scans and watermark scans run beside them. Sequence numbers
// are handed out under the shard lock, so whatever instant a scan caught,
// it must have seen a downward-closed prefix: every record crosses link
// 1-2, so that scan's sequences run 1, 2, 3, … without a gap (since+1, …
// under a watermark), and a flow's records — numbered in Bytes by their
// writer — run 0, 1, 2, …. Under -race it also proves a scan reads only
// what the writer can no longer write. The writers start once every
// reader has scanned, so the active segments take their pages beside the
// scans: in "outgrown", a segment seeded by an 8-record predecessor
// grows to 4,000 records across a dozen page boundaries.
func TestScansBesideAddSeePrefixes(t *testing.T) {
	for name, cfg := range map[string]Config{
		"sealing":    {Shards: 1, SegmentRecords: 600},
		"seal-often": {Shards: 1, SegmentRecords: 37}, // every seal hands its page table on
		"never-seal": {Shards: 1, SegmentRecords: -1},
		"outgrown":   {Shards: 1, SegmentRecords: -1, SegmentSpan: 100_000},
		"two-shards": {Shards: 2, SegmentRecords: 300},
		"16-shards":  {Shards: 16, SegmentRecords: 50},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewStoreConfig(cfg)
			const (
				writers   = 4
				perWriter = 1000
				flowsEach = 40
			)
			flowOf := func(w, k int) types.FlowID { return flowN(w*flowsEach + k) }
			all := types.LinkID{A: 1, B: 2}
			prefill := 0
			if cfg.SegmentSpan > 0 {
				// Records far from the writers' in time seal into a segment
				// of their own at the writers' first, which seeds the next.
				for ; prefill < 8; prefill++ {
					s.Add(mkRecord(flowN(100_000+prefill), types.Path{1, 2, 99}, 1_000_000, 1_000_010, 0, 0))
				}
			}
			var readGroup, writeGroup, started sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 3; r++ {
				readGroup.Add(1)
				started.Add(1)
				go func(r int) {
					defer readGroup.Done()
					for round := 0; ; round++ {
						if round == 1 {
							started.Done()
						}
						select {
						case <-stop:
							return
						default:
						}
						f := flowOf(round%writers, round%flowsEach)
						next := uint64(0)
						s.Scan(&f, types.AnyLink, types.AllTime, func(rec *types.Record) {
							if rec.Flow != f || rec.Bytes != next {
								t.Errorf("flow scan: record %d of %v is %v", next, f, rec)
							}
							next++
						})
						since := uint64(0)
						if r > 0 {
							since = s.LastSeq() / uint64(r+1)
						}
						want := since
						sel := selector{since: since, link: all, tr: types.AllTime}
						if err := s.scan(&sel, func(seq uint64, rec *types.Record) bool {
							if want++; seq != want {
								t.Errorf("link scan since %d: sequence %d where %d is due", since, seq, want)
								want = seq
							}
							return true
						}); err != nil {
							t.Error(err)
						}
						own := types.LinkID{A: 2, B: types.SwitchID(16 + r)}
						var seen [flowsEach]uint64
						s.Scan(nil, own, types.AllTime, func(rec *types.Record) {
							k := int(rec.Pkts)
							if rec.Flow != flowOf(r, k) || rec.Bytes != seen[k] {
								t.Errorf("link scan %v: flow %d's record %d is %v", own, k, seen[k], rec)
							}
							seen[k]++
						})
					}
				}(r)
			}
			started.Wait()
			for w := 0; w < writers; w++ {
				writeGroup.Add(1)
				go func(w int) {
					defer writeGroup.Done()
					for i := 0; i < perWriter; i++ {
						k := i % flowsEach
						s.Add(types.Record{
							Flow:  flowOf(w, k),
							Path:  types.Path{1, 2, types.SwitchID(16 + w)},
							STime: types.Time(i), ETime: types.Time(i + 10),
							Bytes: uint64(i / flowsEach), Pkts: uint64(k),
						})
					}
				}(w)
			}
			writeGroup.Wait()
			close(stop)
			readGroup.Wait()
			if got := s.Len(); got != writers*perWriter+prefill {
				t.Fatalf("Len = %d, want %d", got, writers*perWriter+prefill)
			}
			if cfg.SegmentSpan > 0 {
				seg := s.shards[0].active()
				if s.Seals() != 1 || cap(seg.entries.first) != prefill/2 || pageCount(seg.entries) < 4 {
					t.Errorf("rig: %d seals, the active segment's %d entries in %d pages from a first of %d", s.Seals(), seg.recs(), pageCount(seg.entries), cap(seg.entries.first))
				}
			}
		})
	}
}

// TestShardCountsAgree feeds identical records into stores of different
// shard counts and requires byte-identical query results: sharding is a
// locking strategy, not a semantics change. Sequential inserts must come
// back in exact insertion order from every configuration.
func TestShardCountsAgree(t *testing.T) {
	stores := map[string]*Store{
		"1":  NewStoreConfig(Config{Shards: 1}),
		"4":  NewStoreConfig(Config{Shards: 4}),
		"16": NewStoreConfig(Config{Shards: 16}),
		"64": NewStoreConfig(Config{Shards: 64}),
	}
	var recs []types.Record
	for i := 0; i < 700; i++ {
		recs = append(recs, stressRecord(i%5, i))
	}
	for _, s := range stores {
		for _, r := range recs {
			s.Add(r)
		}
	}
	ref := stores["1"]
	refFlows := ref.Flows(types.AnyLink, types.AllTime)
	refLink := ref.Flows(types.LinkID{A: 2, B: 10}, types.AllTime)
	var refScan []types.Record
	ref.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) { refScan = append(refScan, *r) })

	for name, s := range stores {
		if name == "1" {
			continue
		}
		flows := s.Flows(types.AnyLink, types.AllTime)
		if len(flows) != len(refFlows) {
			t.Fatalf("shards=%s: %d flows, want %d", name, len(flows), len(refFlows))
		}
		for i := range flows {
			if flows[i].ID != refFlows[i].ID || !flows[i].Path.Equal(refFlows[i].Path) {
				t.Fatalf("shards=%s: flow %d = %v, want %v (insertion order broken)",
					name, i, flows[i], refFlows[i])
			}
		}
		link := s.Flows(types.LinkID{A: 2, B: 10}, types.AllTime)
		for i := range link {
			if link[i].ID != refLink[i].ID {
				t.Fatalf("shards=%s: indexed link scan order differs at %d", name, i)
			}
		}
		i := 0
		s.Scan(nil, types.AnyLink, types.AllTime, func(r *types.Record) {
			if i < len(refScan) && (r.Flow != refScan[i].Flow || r.Bytes != refScan[i].Bytes) {
				t.Fatalf("shards=%s: ForEach order differs at %d", name, i)
			}
			i++
		})
		if i != len(refScan) {
			t.Fatalf("shards=%s: ForEach visited %d records, want %d", name, i, len(refScan))
		}
		// Per-flow iteration and aggregates agree too.
		f := recs[3].Flow
		p1 := ref.Paths(f, types.AnyLink, types.AllTime)
		p2 := s.Paths(f, types.AnyLink, types.AllTime)
		if len(p1) != len(p2) {
			t.Fatalf("shards=%s: Paths disagree", name)
		}
		b1, k1 := ref.Count(types.Flow{ID: f}, types.AllTime)
		b2, k2 := s.Count(types.Flow{ID: f}, types.AllTime)
		if b1 != b2 || k1 != k2 {
			t.Fatalf("shards=%s: Count = %d/%d, want %d/%d", name, b2, k2, b1, k1)
		}
	}
}
