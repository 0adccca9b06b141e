package tib

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pathdump/internal/types"
)

// model is the reference TIB: every record with its arrival sequence, in
// arrival order, queried by a linear filter. Nothing about it can be
// wrong in an interesting way, which is the point.
type model struct {
	recs []entry
	seq  uint64
}

func (m *model) add(rec types.Record) {
	m.seq++
	m.recs = append(m.recs, entry{seq: m.seq, rec: rec})
}

func (m *model) scan(since, until uint64, flow *types.FlowID, link types.LinkID, tr types.TimeRange) []entry {
	var out []entry
	for _, e := range m.recs {
		if e.seq <= since || (until > 0 && e.seq > until) || !e.rec.Overlaps(tr) {
			continue
		}
		if (flow != nil && e.rec.Flow != *flow) || (link != types.AnyLink && !e.rec.Path.ContainsLink(link)) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// storeScan is the store's answer to the same question, sequences
// included (scan is the one internal entry point every public Scan
// variant funnels into).
func storeScan(t *testing.T, s *Store, since, until uint64, flow *types.FlowID, link types.LinkID, tr types.TimeRange) []entry {
	t.Helper()
	var out []entry
	sel := selector{since: since, until: until, flow: flow, link: link, tr: tr}
	if err := s.scan(&sel, func(seq uint64, rec *types.Record) bool {
		out = append(out, entry{seq: seq, rec: *rec})
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func sameEntries(got, want []entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].seq != want[i].seq || !recEqual(got[i].rec, want[i].rec) {
			return fmt.Errorf("position %d: seq %d %v, want seq %d %v", i, got[i].seq, &got[i].rec, want[i].seq, &want[i].rec)
		}
	}
	return nil
}

// modelWorld is one randomised scenario: a store under test, its model
// and the pools records are drawn from.
type modelWorld struct {
	t     *testing.T
	rng   *rand.Rand
	cfg   Config
	s     *Store
	m     model
	now   types.Time
	flows []types.FlowID
	paths []types.Path
	links []types.LinkID
	step  types.Time // virtual time between records
	scale [3]uint64  // magnitude of duration, bytes, pkts
	log   []string
	did   map[string]int // how often each operation actually moved something
}

func (w *modelWorld) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s\nconfig %+v\nops: %v", fmt.Sprintf(format, args...), w.cfg, w.log)
}

var modelPaths = []types.Path{
	{1, 2, 3}, {1, 4, 3}, {1, 2, 5, 6}, {7, 8}, {9}, nil,
	{1, 2, 3, 2, 3, 4},       // a routing loop: link 2-3 twice
	{5, 6, 5, 6, 5},          // 5-6 and 6-5 twice each
	{10, 11, 12, 13, 14, 15}, // the long way round
}

// magnitudes force each column width: a block whose values all come from
// one class gets that class's width.
var magnitudes = []uint64{1 << 7, 1 << 15, 1 << 31, 1 << 40}

func newModelWorld(t *testing.T, seed int64) *modelWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &modelWorld{t: t, rng: rng, paths: modelPaths, did: map[string]int{}}
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	w.cfg = Config{
		Shards:         pick(1, 2, 4, 16),
		SegmentRecords: pick(1, 2, 7, 40, -1),
		SegmentSpan:    types.Time(pick(0, 0, 50, 5000)),
		RetentionBytes: int64(pick(0, 0, 3000)),
		CompactBelow:   pick(0, 8, 64),
		ColdDir:        t.TempDir(),
	}
	w.s = NewStoreConfig(w.cfg)
	for i := 0; i < 12; i++ {
		w.flows = append(w.flows, flowN(rng.Intn(1<<20)))
	}
	for _, p := range w.paths {
		for i := 0; i+1 < len(p); i++ {
			w.links = append(w.links, types.LinkID{A: p[i], B: p[i+1]})
		}
	}
	w.links = append(w.links, types.LinkID{A: 99, B: 98}) // on no path
	w.step = types.Time(magnitudes[rng.Intn(len(magnitudes))] >> 6)
	for i := range w.scale {
		w.scale[i] = magnitudes[rng.Intn(len(magnitudes))]
	}
	return w
}

func (w *modelWorld) value(class uint64) uint64 {
	if w.rng.Intn(50) == 0 { // an outlier widens this one block's column
		class = magnitudes[w.rng.Intn(len(magnitudes))]
	}
	return uint64(w.rng.Int63n(int64(class)))
}

func (w *modelWorld) add() {
	w.now += types.Time(w.rng.Int63n(int64(w.step) + 1))
	if w.rng.Intn(100) == 0 {
		w.now += 1 << 33 // a quiet spell: one block's time column needs 8 bytes
	}
	st := w.now - types.Time(w.rng.Int63n(int64(w.step)/2+1)) // late arrivals overlap segment bounds
	rec := types.Record{
		Flow:  w.flows[w.rng.Intn(len(w.flows))],
		Path:  w.paths[w.rng.Intn(len(w.paths))],
		STime: max(st, 0), ETime: max(st, 0) + types.Time(w.value(w.scale[0])),
		Bytes: w.value(w.scale[1]), Pkts: w.value(w.scale[2]),
	}
	if w.rng.Intn(200) == 0 {
		// A burst of sequence numbers handed out elsewhere: the next
		// block's seq column spans ≥ 2³².
		w.s.seq.Add(1 << 32)
		w.m.seq += 1 << 32
	}
	w.s.Add(rec)
	w.m.add(rec)
	if w.s.LastSeq() != w.m.seq {
		w.fatalf("store assigned seq %d, model %d", w.s.LastSeq(), w.m.seq)
	}
}

// reconcile brings the model in line after an eviction: what the store
// still holds must be a subsequence of the model (nothing invented,
// nothing reordered), exactly freed records short, and nothing that
// mustSurvive may be missing. Eviction works on whole segments, whose
// cut points the model deliberately knows nothing about.
func (w *modelWorld) reconcile(freed int, mustSurvive func(entry) bool) {
	w.t.Helper()
	got := storeScan(w.t, w.s, 0, 0, nil, types.AnyLink, types.AllTime)
	kept, gi := w.m.recs[:0], 0
	for _, e := range w.m.recs {
		if gi < len(got) && got[gi].seq == e.seq {
			kept = append(kept, e)
			gi++
		} else if mustSurvive != nil && mustSurvive(e) {
			w.fatalf("eviction dropped seq %d (%v), which had to survive", e.seq, &e.rec)
		}
	}
	if gi != len(got) {
		w.fatalf("after eviction the store holds seq %d, unknown to (or out of order against) the model", got[gi].seq)
	}
	if missing := len(w.m.recs) - len(kept); missing != freed {
		w.fatalf("eviction reported %d records freed, %d are gone", freed, missing)
	}
	w.m.recs = kept
	w.did["evicted"] += freed
}

// reread is ReadSnapshot of the store under test's own snapshot, which
// must keep the writer's stripe count.
func (w *modelWorld) reread() *Store {
	var buf bytes.Buffer
	if err := w.s.Snapshot(&buf); err != nil {
		w.fatalf("snapshot: %v", err)
	}
	s, err := ReadSnapshot(&buf)
	if err != nil {
		w.fatalf("ReadSnapshot: %v", err)
	}
	if len(s.shards) != len(w.s.shards) {
		w.fatalf("restored %d stripes, the writer had %d", len(s.shards), len(w.s.shards))
	}
	return s
}

// restore replaces the store under test with ReadSnapshot of its own
// snapshot. The restored store takes the world's other settings too
// (ReadSnapshot leaves them at their defaults), so the operations that
// follow still seal, compact, spill and evict — now over adopted blocks.
func (w *modelWorld) restore() {
	s := w.reread()
	w.cfg.ColdDir = w.t.TempDir()
	c := NewStoreConfig(w.cfg)
	s.segSpan, s.segRecords, s.retention, s.retentionBytes = c.segSpan, c.segRecords, c.retention, c.retentionBytes
	s.coldDir, s.compactBelow = c.coldDir, c.compactBelow
	w.s = s
}

// sync checks an offline copy: a full re-read of the store under test,
// at its default settings, as pathdumpd -tib serves one.
func (w *modelWorld) sync() {
	w.check(w.reread(), "standby")
}

// check asks the store and the model the same random questions.
func (w *modelWorld) check(s *Store, who string) {
	w.t.Helper()
	if s.Len() != len(w.m.recs) {
		w.fatalf("%s: Len %d, model holds %d", who, s.Len(), len(w.m.recs))
	}
	for q := 0; q < 6; q++ {
		var flow *types.FlowID
		link, tr := types.AnyLink, types.AllTime
		var since, until uint64
		switch w.rng.Intn(5) {
		case 0:
			f := w.flows[w.rng.Intn(len(w.flows))]
			flow = &f
		case 1:
			link = w.links[w.rng.Intn(len(w.links))]
		case 2:
			link = w.links[w.rng.Intn(len(w.links))]
			if w.rng.Intn(2) == 0 {
				link.A = types.WildcardSwitch
			} else {
				link.B = types.WildcardSwitch
			}
		case 3:
			f := w.flows[w.rng.Intn(len(w.flows))]
			flow, link = &f, w.links[w.rng.Intn(len(w.links))]
		}
		if w.rng.Intn(2) == 0 && w.now > 0 {
			from := types.Time(w.rng.Int63n(int64(w.now)))
			tr = types.TimeRange{From: from, To: from + types.Time(w.rng.Int63n(int64(w.now-from)+1))}
		}
		if w.rng.Intn(2) == 0 && len(w.m.recs) > 0 {
			since = w.m.recs[w.rng.Intn(len(w.m.recs))].seq - uint64(w.rng.Intn(2))
			if w.rng.Intn(2) == 0 {
				until = since + uint64(w.rng.Intn(40))
			}
		}
		got := storeScan(w.t, s, since, until, flow, link, tr)
		if err := sameEntries(got, w.m.scan(since, until, flow, link, tr)); err != nil {
			w.fatalf("%s: scan (%d, %d] flow %v link %v range %v: %v", who, since, until, flow, link, tr, err)
		}
	}
}

// TestStoreMatchesReferenceModel (ROADMAP aim 3b): random interleavings
// of every lifecycle operation, and after each one the store must answer
// flow, concrete-link, wildcard-link and time-range scans over random
// (since, until] windows exactly as a slice with a linear filter does —
// same records, same sequence numbers, same order.
func TestStoreMatchesReferenceModel(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	did := map[string]int{}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := newModelWorld(t, seed)
		w.did = did
		for op := 0; op < 250; op++ {
			name := "add"
			switch k := w.rng.Intn(100); {
			case k < 70:
				for n := 1 + w.rng.Intn(4); n > 0; n-- {
					w.add()
				}
			case k < 76:
				name = "compact"
				merged, _ := w.s.Compact()
				did["compacted"] += merged
			case k < 82:
				name = "spill"
				w.s.spillFloor.Store(0) // not the throttle's test
				segs, _, err := w.s.SpillBefore(w.now - types.Time(w.rng.Int63n(int64(w.step)*20+1)))
				if err != nil {
					w.fatalf("spill: %v", err)
				}
				did["spilled"] += segs
			case k < 86:
				name = "evict-before"
				w.s.evictFloor.Store(0)
				cutoff := w.now - types.Time(w.rng.Int63n(int64(w.step)*40+1))
				_, freed := w.s.EvictBefore(cutoff)
				w.reconcile(freed, func(e entry) bool { return e.rec.ETime >= cutoff })
			case k < 90:
				name = "evict-over-bytes"
				_, freed := w.s.EvictOverBytes()
				w.reconcile(freed, nil)
				if b := w.cfg.RetentionBytes; b > 0 && w.s.SizeBytes() > b && w.s.SealedSegments() > 0 {
					w.fatalf("EvictOverBytes left %d bytes over a %d budget with sealed segments to spare", w.s.SizeBytes(), b)
				}
			case k < 94:
				name = "restore"
				w.restore()
			default:
				name = "sync"
				w.sync()
			}
			w.log = append(w.log, name)
			w.check(w.s, name)
		}
		did["thawed"] += int(w.s.ColdStats().Loads)
		did["sealed"] += int(w.s.Seals())
	}
	t.Logf("operations that moved something: %v", did)
	for _, k := range []string{"sealed", "compacted", "spilled", "thawed", "evicted"} {
		if did[k] == 0 {
			t.Errorf("no %q ever happened: the interleavings have gone vacuous", k)
		}
	}
}

// TestActiveSegmentMatchesReferenceModel holds a store that never seals by
// count to the same model: every record (300 flows, over one to four
// shards) stays in its shard's active segment, whose entries grow page
// after page while listed flow, link and (since, until] scans filter
// those pages after every few adds — and read their sealed form after a
// restore.
func TestActiveSegmentMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newModelWorld(t, seed)
		w.cfg = Config{Shards: int(seed), SegmentRecords: -1, ColdDir: w.cfg.ColdDir}
		w.s = NewStoreConfig(w.cfg)
		w.flows = w.flows[:0]
		for i := 0; i < 300; i++ {
			w.flows = append(w.flows, flowN(i))
		}
		for op := 0; op < 400; op++ {
			for n := 1 + w.rng.Intn(4); n > 0; n-- {
				w.add()
			}
			w.check(w.s, "add")
		}
		for i := range w.s.shards {
			if len(w.s.shards[i].segs()) > 1 {
				t.Fatalf("seed %d: shard %d sealed a segment", seed, i)
			}
		}
		w.restore()
		w.check(w.s, "restore")
	}
}

// TestRecurringKeysMatchReferenceModel holds listed scans across seals to
// the model: four flows and the links of a few paths recur in every
// segment of a store that seals every 8 to 64 records, so every scan
// reads a flow's or a link's records from blocks' postings and from the
// active segment's filtered pages at once. After every add, every flow's
// and every link's listed scan, and each of them again from a recent
// ScanSince watermark, must answer as the model does — and once more
// after a restore.
func TestRecurringKeysMatchReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newModelWorld(t, seed)
		w.cfg = Config{Shards: int(1 + seed%2), SegmentRecords: []int{8, 13, 31, 64}[seed-1], ColdDir: w.cfg.ColdDir}
		w.s = NewStoreConfig(w.cfg)
		w.flows = w.flows[:4]
		w.paths = modelPaths[:4]
		w.links = w.links[:0]
		for _, p := range w.paths {
			for i := 0; i+1 < len(p); i++ {
				w.links = append(w.links, types.LinkID{A: p[i], B: p[i+1]})
			}
		}
		ask := func(who string, since uint64, flow *types.FlowID, link types.LinkID) {
			w.t.Helper()
			got := storeScan(w.t, w.s, since, 0, flow, link, types.AllTime)
			if err := sameEntries(got, w.m.scan(since, 0, flow, link, types.AllTime)); err != nil {
				w.fatalf("%s: scan since %d flow %v link %v: %v", who, since, flow, link, err)
			}
		}
		listed := func(who string) {
			w.t.Helper()
			recent := w.m.recs[len(w.m.recs)-1-w.rng.Intn(min(len(w.m.recs), 2*w.cfg.SegmentRecords))].seq - 1
			for _, since := range []uint64{0, recent} {
				for i := range w.flows {
					ask(who, since, &w.flows[i], types.AnyLink)
				}
				for _, l := range w.links {
					ask(who, since, nil, l)
				}
			}
		}
		for op := 0; op < 400; op++ {
			w.add()
			listed("add")
		}
		if seals := w.s.Seals(); seals < uint64(400/w.cfg.SegmentRecords/2) {
			t.Fatalf("seed %d: %d seals over 400 records", seed, seals)
		}
		w.restore()
		listed("restore")
	}
}

// TestBigBlockMatchesReferenceModel: more than 65,535 records in one
// block, so record indexes in its postings need four bytes.
func TestBigBlockMatchesReferenceModel(t *testing.T) {
	if testing.Short() {
		t.Skip("70k-record block is not short")
	}
	w := newModelWorld(t, 99)
	w.cfg = Config{Shards: 1, SegmentRecords: 70_000, ColdDir: w.cfg.ColdDir}
	w.s = NewStoreConfig(w.cfg)
	for i := 0; i < 70_010; i++ {
		w.add()
	}
	blk := w.s.shards[0].segs()[0].blk
	if blk == nil || blk.n != 70_000 || blk.perm.w != 4 {
		t.Fatalf("first segment is not a sealed 70,000-record block with 4-byte indexes")
	}
	w.check(w.s, "resident")
	w.s.spillFloor.Store(0)
	if segs, _, err := w.s.SpillBefore(types.TimeEnd); err != nil || segs != 1 {
		t.Fatalf("spill: %d segments, %v", segs, err)
	}
	w.check(w.s, "thawed")
	w.restore()
	w.check(w.s, "restored")
}
