package tib

import (
	"math/bits"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pathdump/internal/types"
)

// DefaultShards is the stripe count of a Store built with NewStore. Powers
// of two make a flow's stripe a shift of its hash; 16 stripes are enough to
// keep a host's ingest path and a handful of concurrent query scans off
// each other's locks without bloating small stores.
const DefaultShards = 16

// maxShards caps the stripe count, 64 times the default: a snapshot's
// header declares its writer's count, which the restored store takes,
// so the reader refuses anything above what a writer can have.
const maxShards = 1024

// DefaultSegmentRecords is the default seal threshold: the active segment
// of a shard is sealed once it holds this many records. Small enough that
// a narrow time window prunes most of a large store by segment bounds
// alone, large enough that per-segment index maps and merge cursors stay
// cheap.
const DefaultSegmentRecords = 8192

// Config parameterises a Store beyond the shard count. The zero value
// selects the documented defaults.
type Config struct {
	// Shards is the lock-stripe count (rounded up to a power of two, at
	// most 1024; default DefaultShards, 1 yields a single-lock store).
	Shards int
	// SegmentSpan seals the active segment of a shard once the time span
	// covered by its records would exceed this (0 = seal by record count
	// only). Time-bucketed segments give range queries the tightest
	// pruning bounds and are the unit of Retention eviction.
	SegmentSpan types.Time
	// SegmentRecords seals the active segment once it holds this many
	// records (0 = DefaultSegmentRecords; negative = never seal by count,
	// which without SegmentSpan reproduces the pre-segmentation store: one
	// unbounded segment per shard, every scan filters every record).
	SegmentRecords int
	// Retention bounds how far back sealed segments are kept: EvictBefore
	// drops whole sealed segments strictly older than the cutoff the
	// caller derives from it (the agent uses now−Retention). 0 keeps
	// everything. Eviction granularity is a segment — pair Retention with
	// a SegmentSpan a fraction of it, as the paper's fixed per-host
	// storage budget intends (§5.3).
	Retention types.Time
	// RetentionBytes bounds the store by resident size instead of (or in
	// addition to) age: once the estimated footprint exceeds it,
	// EvictOverBytes drops the oldest sealed segments until the store fits
	// again — the paper's fixed MB-per-host budget (§5.3) taken literally.
	// 0 means no byte budget. Like Retention, granularity is a whole
	// segment and the active segment is never evicted.
	RetentionBytes int64
	// ColdDir enables the cold tier: SpillBefore moves sealed segments
	// older than its cutoff into one file each under this directory (the
	// segment's block, byte for byte) and scans demand-load them
	// transiently. Empty disables spilling. See cold.go.
	ColdDir string
	// CompactBelow enables background compaction: sealed, resident
	// segments holding fewer records than this are candidates for
	// merging with their chain neighbours (see compact.go). 0 disables
	// compaction.
	CompactBelow int
}

// Store is one host's Trajectory Information Base: an append-mostly record
// log with flow and directed-link indexes, striped into independently
// locked shards so that concurrent ingest (Add) and query scans do not
// serialise on a single mutex.
//
// Within a shard, records live in a chain of time-partitioned segments:
// one active append segment plus sealed, immutable predecessors, each
// carrying min/max time bounds and its own flow/link index. Range scans
// intersect the query's time range with segment bounds and skip whole
// segments without touching a record; Retention eviction drops whole
// sealed segments, bounding the store (§5.3's fixed per-host budget).
//
// Records are assigned to shards by flow hash — every record of one flow
// lives in one shard — and each record carries a global arrival sequence
// number. Iteration merges shards (and their segment chains) by that
// sequence, so all query results appear in exact global insertion order,
// indistinguishable from the previous single-lock, single-segment
// implementation. All methods are safe for concurrent use (the HTTP agent
// serves queries while the datapath appends).
type Store struct {
	shards []storeShard
	shift  uint // 64 − log2(len(shards)): stripe's shift
	// seq hands out global arrival sequence numbers; count tracks the
	// total record count without summing shard lengths under locks.
	seq   atomic.Uint64
	count atomic.Int64

	segSpan        types.Time
	segRecords     int
	retention      types.Time
	retentionBytes int64

	// bytesTotal is the store's logical resident footprint (recSize per
	// record), maintained on Add/eviction/restore; EvictOverBytes keeps it
	// under RetentionBytes. ResidentBytes reports the true one.
	bytesTotal atomic.Int64
	// evictMu serialises byte-budget evictions so concurrent ingest does
	// not stampede the oldest-segment search.
	evictMu sync.Mutex

	// evictFloor is at or below the newest record of every sealed
	// segment, so a cutoff at or below it cannot free one: the agent calls
	// EvictBefore per exported record and pays the shard sweep only once
	// the oldest sealed segment has expired. A seal lowers it; a sweep
	// raises it to the oldest segment it kept, unless a seal raced the
	// sweep (floorGen counts seals; floorMu guards both).
	evictFloor atomicTime
	floorMu    sync.Mutex
	floorGen   uint64

	// Scan telemetry: cumulative counts of segments walked versus skipped
	// by bound intersection, across all scans. The rpc servers and the
	// in-process transport report per-query deltas to the controller's
	// ExecStats and its §5.2 pruned-fraction cost term.
	segScanned atomic.Uint64
	segPruned  atomic.Uint64

	// Cold tier (cold.go): spillFloor throttles SpillBefore (advance);
	// coldBytesTotal tracks the estimated thawed footprint of everything
	// currently spilled; coldLoads/coldFaults count demand-loads and
	// their failures.
	coldDir        string
	spillFloor     atomicTime
	coldBytesTotal atomic.Int64
	coldLoads      atomic.Uint64
	coldFaults     atomic.Uint64

	// Compaction (compact.go): compactBelow is the candidate threshold,
	// sealCount counts segments sealed by Add (MaybeCompact's cheap
	// trigger), compactMark the sealCount at the last completed pass,
	// compactMu admits one compactor at a time, and compactions counts
	// completed merges; plan is the scratch planShard fills, owned by
	// whoever holds compactMu.
	compactBelow int
	sealCount    atomic.Uint64
	compactMark  atomic.Uint64
	compactMu    sync.Mutex
	compactions  atomic.Uint64
	plan         compactPlan
}

// atomicTime is an atomic types.Time (int64).
type atomicTime struct{ v atomic.Int64 }

// Load returns the current value.
func (a *atomicTime) Load() types.Time { return types.Time(a.v.Load()) }

// Store replaces the current value.
func (a *atomicTime) Store(t types.Time) { a.v.Store(int64(t)) }

// storeShard is one lock stripe: an ordered chain of segments. The last
// segment, once the shard has taken a record, is the active append
// target; all earlier ones are sealed and immutable. Sequence numbers are
// assigned under the shard lock, so the chain is sequence-monotonic:
// every entry of segs[i] precedes every entry of segs[i+1] in global
// arrival order.
type storeShard struct {
	mu sync.RWMutex
	// list holds the segments, oldest first; nil until the shard's first
	// record or block. Behind a pointer, a stripe is 32 bytes and a
	// default store's 16 take one 512-byte allocation; at 48 bytes they
	// took 896, the allocator's header included.
	list *[]*segment
}

// segs returns the shard's segments, oldest first. Caller holds the lock.
func (sh *storeShard) segs() []*segment {
	if sh.list == nil {
		return nil
	}
	return *sh.list
}

// push appends seg to the shard's segments. Caller holds the write lock.
func (sh *storeShard) push(seg *segment) {
	if sh.list == nil {
		sh.list = new([]*segment)
	}
	*sh.list = append(*sh.list, seg)
}

// setSegs replaces the shard's segments with segs, cut from them by
// eviction or compaction. Caller holds the write lock.
func (sh *storeShard) setSegs(segs []*segment) {
	if sh.list != nil {
		*sh.list = segs
	}
}

// active returns the shard's append segment: nil before the shard's first
// record, and in a restored store until the shard's next one.
func (sh *storeShard) active() *segment {
	if segs := sh.segs(); len(segs) > 0 && !segs[len(segs)-1].sealed() {
		return segs[len(segs)-1]
	}
	return nil
}

type entry struct {
	seq uint64
	rec types.Record
}

// NewStore builds an empty TIB with the default configuration.
func NewStore() *Store { return NewStoreConfig(Config{}) }

// NewStoreConfig builds an empty TIB from an explicit configuration. A
// shard's first segment appears with its first record, so an idle store
// costs its stripes' locks and nothing more.
func NewStoreConfig(cfg Config) *Store {
	n := cfg.Shards
	if n < 1 {
		n = DefaultShards
	}
	n = min(n, maxShards)
	pow := 1
	for pow < n {
		pow <<= 1
	}
	segRecords := cfg.SegmentRecords
	if segRecords == 0 {
		segRecords = DefaultSegmentRecords
	}
	return &Store{
		shards:         make([]storeShard, pow),
		shift:          uint(64 - bits.TrailingZeros(uint(pow))),
		segSpan:        cfg.SegmentSpan,
		segRecords:     segRecords,
		retention:      cfg.Retention,
		retentionBytes: cfg.RetentionBytes,
		coldDir:        cfg.ColdDir,
		compactBelow:   cfg.CompactBelow,
	}
}

// Retention returns the configured retention window (0 = unbounded); the
// agent's ingest path derives EvictBefore cutoffs from it.
func (s *Store) Retention() types.Time { return s.retention }

// RetentionBytes returns the configured byte budget (0 = unbounded).
func (s *Store) RetentionBytes() int64 { return s.retentionBytes }

// SizeBytes returns the store's logical resident footprint — the
// quantity EvictOverBytes holds under the byte budget. It is a per-record
// charge (recSize), not a measurement; see ResidentBytes for that.
func (s *Store) SizeBytes() int64 { return s.bytesTotal.Load() }

// ResidentBytes returns what the store's records actually occupy in
// memory: the length of every resident block, the buffers of the active
// segments (their entries' pages at capacity, the page tables and the
// entries' path arrays) and the blooms cold segments keep.
func (s *Store) ResidentBytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, seg := range sh.segs() {
			switch {
			case seg.blk != nil:
				n += int64(len(seg.blk.b))
			case seg.cold:
				n += int64(len(seg.filter))
			default:
				n += seg.activeBytes()
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// LastSeq returns the newest global arrival sequence number handed out
// (0 for an empty store). Continuous monitors capture it before an
// incremental scan and use it as the next run's watermark.
func (s *Store) LastSeq() uint64 { return s.seq.Load() }

// recSize is one record's charge against the byte budget. It was sized
// for the pre-block store and is roughly twice what a sealed record
// costs now; it stays because retention, the benchmark's warm-up and
// every committed number are calibrated to it. It only needs to be
// consistent: an O(1) accounting update on the ingest path.
func recSize(rec *types.Record) int64 {
	return 96 + 2*int64(len(rec.Path))
}

// stripe maps a flow's hash (types.StoreHash) onto its stripe: the
// hash's top bits, so the low bits that seed its bloom probes and its
// block flow order vary within a stripe.
func (s *Store) stripe(h uint64) int { return int(h >> s.shift) }

// Add appends one TIB record. Only the record's shard — its flow's hash
// picks it, and that is all the hash is for here — is locked, so
// concurrent ingest of distinct flows proceeds in parallel. When the
// shard's active segment is full (by record count) or the record would
// stretch its time span past SegmentSpan, the segment is sealed — encoded
// into its immutable block — and a fresh active segment starts, shaped
// like the one sealed (segment.seal). A shard without an active segment
// starts one.
func (s *Store) Add(rec types.Record) {
	si := s.stripe(types.StoreHash(rec.Flow))
	sh := &s.shards[si]
	sh.mu.Lock()
	seg := sh.active()
	switch {
	case seg == nil: // its entries' first page will hold one: no slack
		seg = &segment{entries: new(pages[entry])}
		sh.push(seg)
	case s.shouldSeal(seg, &rec):
		sealed := seg
		seg = seg.seal(si)
		sh.push(seg)
		s.sealCount.Add(1)
		s.lowerEvictFloor(sealed.maxTime)
	}
	// The sequence number is assigned under the shard lock so each
	// shard's segment chain is sequence-monotonic, which the scan merge
	// relies on.
	seg.add(entry{seq: s.seq.Add(1), rec: rec})
	sh.mu.Unlock()
	s.count.Add(1)
	s.bytesTotal.Add(recSize(&rec))
}

// shouldSeal decides whether the active segment, which holds a record at
// least, must be sealed before rec is appended.
func (s *Store) shouldSeal(seg *segment, rec *types.Record) bool {
	if s.segRecords > 0 && seg.entries.n >= s.segRecords {
		return true
	}
	if s.segSpan > 0 {
		lo, hi := seg.minTime, seg.maxTime
		if rec.STime < lo {
			lo = rec.STime
		}
		if rec.ETime > hi {
			hi = rec.ETime
		}
		return hi-lo > s.segSpan
	}
	return false
}

// Len returns the record count.
func (s *Store) Len() int { return int(s.count.Load()) }

// Segments returns how many segments currently exist across all shards:
// none is empty (a shard's active segment appears with its first record),
// and cold ones count — they are still scannable.
func (s *Store) Segments() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.segs())
		sh.mu.RUnlock()
	}
	return n
}

// SealedSegments returns how many sealed, resident (non-cold) segments
// exist across all shards — the population background compaction works
// on and the churn benchmark asserts against.
func (s *Store) SealedSegments() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, seg := range sh.segs() {
			if seg.blk != nil {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// SegmentStats returns the cumulative scan telemetry: how many segments
// scans have walked versus pruned by time-bound intersection. Callers
// attribute a query's share by delta (capture before and after).
func (s *Store) SegmentStats() (scanned, pruned uint64) {
	return s.segScanned.Load(), s.segPruned.Load()
}

// EvictBefore drops every sealed segment whose newest record ended
// strictly before cutoff, returning how many segments and records were
// freed. The active segment is never evicted (seal it first by adding, or
// accept that the freshest records always survive). Eviction is the
// retention mechanism reproducing the paper's fixed per-host storage
// budget: whole expired segments go at once, indexes and all.
//
// Repeated calls with slowly advancing cutoffs are cheap: a cutoff that
// no sealed segment has expired under returns without touching a lock,
// and one that has frees that segment at once, so what the store holds
// past its retention is a segment's span, not one plus the time since a
// previous eviction.
func (s *Store) EvictBefore(cutoff types.Time) (segments, records int) {
	if cutoff <= s.evictFloor.Load() {
		return 0, 0
	}
	s.floorMu.Lock()
	gen := s.floorGen
	s.floorMu.Unlock()
	oldest := types.Time(1<<63 - 1) // the oldest sealed segment kept
	var freed, coldFreed int64
	var coldFiles []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		segs := sh.segs()
		keep := segs[:0]
		for _, seg := range segs {
			if seg.sealed() && seg.maxTime < cutoff {
				segments++
				records += seg.recs()
				freed += seg.bytes
				if seg.cold {
					coldFreed += seg.coldBytes
					// Mark before the file is unlinked (after the
					// locks drop) so a racing scan that captured this
					// segment treats a vanished file as an eviction,
					// not corruption.
					seg.dropped.Store(true)
					coldFiles = append(coldFiles, seg.coldPath)
				}
				continue
			}
			if seg.sealed() {
				oldest = min(oldest, seg.maxTime)
			}
			keep = append(keep, seg)
		}
		// Clear the dropped tail so evicted segments are collectable.
		clear(segs[len(keep):])
		sh.setSegs(keep)
		sh.mu.Unlock()
	}
	s.floorMu.Lock()
	if s.floorGen == gen { // else a segment sealed behind the sweep may be older
		s.evictFloor.Store(oldest)
	}
	s.floorMu.Unlock()
	if records > 0 {
		s.count.Add(int64(-records))
		s.bytesTotal.Add(-freed)
		s.coldBytesTotal.Add(-coldFreed)
	}
	for _, p := range coldFiles {
		os.Remove(p)
	}
	return segments, records
}

// lowerEvictFloor admits a segment just sealed with newest record t to
// EvictBefore's floor. Caller holds the segment's shard lock.
func (s *Store) lowerEvictFloor(t types.Time) {
	s.floorMu.Lock()
	s.floorGen++
	if t < s.evictFloor.Load() {
		s.evictFloor.Store(t)
	}
	s.floorMu.Unlock()
}

// advance reports whether cutoff has moved far enough past the last
// effective one — a full SegmentSpan or, spanless, a quarter of Retention
// — to possibly spill a new segment, and records it if so.
// Virtual time starts at 0: nothing can predate a non-positive cutoff,
// so the whole first retention window is lock-free here.
func (s *Store) advance(floor *atomicTime, cutoff types.Time) bool {
	step := s.segSpan
	if step == 0 {
		step = s.retention / 4
	}
	if last := floor.Load(); cutoff <= 0 || (last > 0 && cutoff < last+step) {
		return false
	}
	floor.Store(cutoff)
	return true
}

// EvictOverBytes enforces the byte budget (Config.RetentionBytes): while
// the store's estimated footprint exceeds it, the globally oldest sealed
// segment (smallest max record time) is dropped whole, indexes and all.
// The active segments are never evicted, so a store whose live append
// heads alone exceed the budget stays over it until they seal. Safe to
// call per ingested record: under budget it is one atomic load, and a
// single evictor runs at a time.
func (s *Store) EvictOverBytes() (segments, records int) {
	budget := s.retentionBytes
	if budget <= 0 || s.bytesTotal.Load() <= budget {
		return 0, 0
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for s.bytesTotal.Load() > budget {
		// Find the oldest sealed, non-empty segment across all shards.
		victimShard := -1
		var victim *segment
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.RLock()
			for _, seg := range sh.segs() {
				if seg.blk != nil && (victim == nil || seg.maxTime < victim.maxTime) {
					victim, victimShard = seg, i
				}
			}
			sh.mu.RUnlock()
		}
		if victim == nil {
			return segments, records // nothing sealed left to free
		}
		sh := &s.shards[victimShard]
		sh.mu.Lock()
		for j, seg := range sh.segs() {
			if seg == victim {
				sh.setSegs(slices.Delete(sh.segs(), j, j+1))
				segments++
				records += seg.n
				s.count.Add(int64(-seg.n))
				s.bytesTotal.Add(-seg.bytes)
				break
			}
		}
		sh.mu.Unlock()
	}
	return segments, records
}

// scanBuf holds one scan's reusable cursor machinery: the per-shard
// cursor list, every cursor's per-segment chain back to back in one
// slice, and the one Record sealed blocks are materialised through.
// Scans borrow one from a sync.Pool; a buffer the pool did not keep costs
// a scan a few allocations, however many stripes it spans. release
// clears every segCursor it handed out, so a pooled buffer never pins
// evicted segments' blocks or entries. The merge window's records it
// leaves: all they reference is a path, a slice of a block's small hop
// table.
type scanBuf struct {
	cursors []cursor
	segs    []segCursor // the cursors' segs, back to back
	rec     types.Record
	win     *window // a merge of several cursors' staging, made on first use
}

// mergeWindow is how many consecutive arrival sequences one round of the
// cross-stripe merge places.
const mergeWindow = 256

// window is one merge round: bit j of used is set when sequence base+j
// is a record the scan visits, and rec[j] holds it.
type window struct {
	used [mergeWindow / 64]uint64
	rec  [mergeWindow]types.Record
}

var scanBufs = sync.Pool{New: func() any { return new(scanBuf) }}

func getScanBuf() *scanBuf { return scanBufs.Get().(*scanBuf) }

// release clears all segment references and returns the buffer to the
// pool.
func (b *scanBuf) release() {
	clear(b.cursors)
	clear(b.segs)
	b.cursors, b.segs, b.rec = b.cursors[:0], b.segs[:0], types.Record{}
	scanBufs.Put(b)
}

// selector is one scan's predicate: the (since, until] arrival-sequence
// window, the time range, and the flow and link terms.
type selector struct {
	since, until uint64
	flow         *types.FlowID
	link         types.LinkID
	tr           types.TimeRange
	// listed is set when there is a flow or a concrete link to look up:
	// block cursors then walk that posting list (the flow's when both are
	// given) instead of every record, and active page cursors drop the
	// entries that fail it (keeps).
	listed bool
	// checkLink is set when the link still filters record by record: a
	// flow's postings, or a link with one wildcard end, leave it to.
	checkLink bool
	fh        uint64 // types.StoreHash(*flow): single-flow scans probe blooms
}

// keeps reports whether rec is on the posting list a listed selector
// names: the flow's, or else the link's. It is what a block's postings
// answer, asked of an active segment's entry.
func (sel *selector) keeps(rec *types.Record) bool {
	if sel.flow != nil {
		return rec.Flow == *sel.flow
	}
	return rec.Path.ContainsLink(sel.link)
}

// cursor walks one shard's matching records in sequence order during a
// cross-shard merge: a chain of per-segment sub-cursors, consumed in
// chain order (the chain is sequence-monotonic). The head's sequence
// number is cached, so the merge compares shards by seq alone and
// materialises only the winner.
type cursor struct {
	segs []segCursor
	si   int
	seq  uint64 // the head's arrival sequence; seqDone once exhausted
	idx  int    // the head's record index within segs[si]
}

const seqDone = ^uint64(0)

// segCursor walks one segment: a sealed (or thawed) block in place, or
// one page of an active segment's entries as captured under the shard
// read lock — pages are never regrown or reused, so what was captured
// stays valid (and immutable) after the lock is released. Positions i..n
// index the records themselves — a block's or the page's — or, when a
// block cursor is listed, a posting list into them; a listed page cursor
// skips the entries its selector does not keep as it settles. A cursor
// captured over a sealed segment carries only its block (or, cold, the
// segment to thaw); resolve aims it after the shard locks are released,
// before the merge starts.
type segCursor struct {
	blk    *block
	bpost  column  // listed block cursor: a run of the block's postings
	ents   []entry // active cursor: a page of entries
	listed bool
	i, n   int
	cold   *segment // cold segment still to thaw; nil once resolved
}

// head maps a cursor position to its record's index and arrival
// sequence.
func (c *segCursor) head(k int) (idx int, seq uint64) {
	if c.blk == nil {
		return k, c.ents[k].seq
	}
	if c.listed {
		k = int(c.bpost.at(k))
	}
	return k, c.blk.seqAt(k)
}

// aim points the cursor at blk — or, when blk is nil, at a page of an
// active segment's entries (caller holds the shard read lock) — through
// the posting list sel names, and skips the positions at or below the
// since watermark: sequences ascend along records and postings alike, so
// the cut is a binary search. It reports whether anything is left to
// visit.
func (c *segCursor) aim(sel *selector, blk *block, page []entry) bool {
	c.blk, c.listed = blk, sel.listed
	switch {
	case blk == nil:
		c.ents, c.n = page, len(page)
	case !sel.listed:
		c.n = blk.n
	case sel.flow != nil:
		c.bpost = blk.flowPostings(*sel.flow)
		c.n = c.bpost.len()
	default:
		c.bpost = blk.linkPostings(sel.link)
		c.n = c.bpost.len()
	}
	past := func(k int) bool { _, seq := c.head(k); return seq > sel.since }
	if sel.since > 0 && c.n > 0 && !past(0) {
		c.i = sort.Search(c.n, past)
	}
	return c.i < c.n
}

// settle moves the cursor to its next head at or below sel.until (0 = no
// bound) — on a listed scan, past the entries of an active page that sel
// does not keep — and caches that head's sequence and record index. The
// chain is sequence-monotonic, so the first head past the bound exhausts
// it.
func (c *cursor) settle(sel *selector) {
	for ; c.si < len(c.segs); c.si++ {
		sc := &c.segs[c.si]
		if sc.listed && sc.blk == nil {
			for sc.i < sc.n && !sel.keeps(&sc.ents[sc.i].rec) {
				sc.i++
			}
		}
		if sc.i == sc.n {
			continue
		}
		if c.idx, c.seq = sc.head(sc.i); sel.until > 0 && c.seq > sel.until {
			break
		}
		return
	}
	c.seq = seqDone
}

// merge visits every cursor's records in ascending global sequence
// order, applying the selector's per-record terms, until fn returns
// false. Cancellation-aware scans (a query whose caller hung up
// mid-evaluation) use the early exit to bail out between records instead
// of finishing a pointless full scan. The Record handed to fn is valid
// only until fn returns.
//
// Several cursors merge a window at a time rather than by comparing
// heads per record: from the lowest head, each cursor in turn copies its
// records of the next mergeWindow sequences to their offsets in the
// window, and the window is then read in order. A record costs the same
// however many stripes the scan spans and however their arrivals
// interleave, and each block is read front to back, a run at a time. It
// relies on no two records sharing a sequence, which Add's counter
// guarantees and ReadSnapshot checks.
func (b *scanBuf) merge(sel *selector, fn func(uint64, *types.Record) bool) {
	cursors := b.cursors
	for i := range cursors {
		cursors[i].settle(sel)
	}
	if len(cursors) < 2 {
		for i := range cursors { // one at most: nothing to merge
			c := &cursors[i]
			for c.seq != seqDone {
				seq := c.seq
				if !visit(sel, c.take(&b.rec, sel), seq, fn) {
					return
				}
			}
		}
		return
	}
	if b.win == nil {
		b.win = new(window)
	}
	w := b.win
	for {
		base := uint64(seqDone)
		for i := range cursors {
			base = min(base, cursors[i].seq)
		}
		if base == seqDone {
			return
		}
		end := base + mergeWindow
		if end < base {
			end = seqDone
		}
		for i := range cursors {
			c := &cursors[i]
			for c.seq < end {
				off := c.seq - base
				w.used[off/64] |= 1 << (off % 64)
				if rec := c.take(&w.rec[off], sel); rec != &w.rec[off] {
					w.rec[off] = *rec
				}
			}
		}
		for k := range w.used {
			for w.used[k] != 0 {
				off := k*64 + bits.TrailingZeros64(w.used[k])
				w.used[k] &= w.used[k] - 1
				if !visit(sel, &w.rec[off], base+uint64(off), fn) {
					clear(w.used[:])
					return
				}
			}
		}
	}
}

// take returns the cursor's head record — materialised into rec when it
// lies in a block, in place when it lies in an active segment — and
// settles the cursor on its next head.
func (c *cursor) take(rec *types.Record, sel *selector) *types.Record {
	sc := &c.segs[c.si]
	if sc.blk != nil {
		sc.blk.record(c.idx, rec)
	} else {
		rec = &sc.ents[c.idx].rec
	}
	sc.i++
	c.settle(sel)
	return rec
}

// visit hands fn the record if it passes the selector's per-record terms,
// and reports whether the scan goes on.
func visit(sel *selector, rec *types.Record, seq uint64, fn func(uint64, *types.Record) bool) bool {
	if !rec.Overlaps(sel.tr) || (sel.checkLink && !rec.Path.ContainsLink(sel.link)) {
		return true
	}
	return fn(seq, rec)
}

// capture takes a read view of the given shards: per surviving segment,
// a reference to its block (sealed segments are immutable, and a cold one
// is a file) or, for the active segment, a cursor aimed at the committed
// prefix of each page of its entries. Segments whose time bounds do not
// intersect the range, whose sequence bounds fall wholly outside (since,
// until], or — on single-flow scans — whose bloom rules the flow out are
// pruned: skipped whole, before any record is touched.
//
// The view holds the records numbered up to the store's sequence counter
// as capture found it (sel.until is lowered to it), a downward-closed
// prefix of the global arrival order: a number is handed out and its
// record appended under one shard write lock, so each number the counter
// had given is in place by the time capture read-locks that shard. The
// shards are therefore locked one at a time, and a writer waits on at
// most one shard's capture — a few comparisons and a pointer copy per
// segment (per page, for the active one).
func (s *Store) capture(buf *scanBuf, shards []storeShard, sel *selector) {
	last := s.seq.Load()
	if last == 0 {
		return // empty when the scan began
	}
	if sel.until == 0 || sel.until > last {
		sel.until = last
	}
	var scanned, pruned uint64
	for i := range shards {
		sh := &shards[i]
		start := len(buf.segs)
		sh.mu.RLock()
		for _, seg := range sh.segs() {
			if seg.seqOutside(sel.since, sel.until) || !seg.overlaps(sel.tr) ||
				(sel.flow != nil && !seg.filter.mayContain(sel.fh)) {
				pruned++
				continue
			}
			scanned++ // even when the index then answers "none"
			switch {
			case seg.cold:
				buf.segs = append(buf.segs, segCursor{cold: seg})
			case seg.blk != nil:
				buf.segs = append(buf.segs, segCursor{blk: seg.blk})
			default:
				for pg := range seg.entries.all {
					var sc segCursor
					if sc.aim(sel, nil, pg) {
						buf.segs = append(buf.segs, sc)
					}
				}
			}
		}
		sh.mu.RUnlock()
		if len(buf.segs) > start {
			buf.cursors = append(buf.cursors, cursor{si: len(buf.segs)}) // si holds the end until the cut below
		}
	}
	// segs may have moved as it grew, so the cursors' slices of it are
	// cut only now.
	start := 0
	for i := range buf.cursors {
		c := &buf.cursors[i]
		c.segs, c.si, start = buf.segs[start:c.si:c.si], 0, c.si
	}
	s.segScanned.Add(scanned)
	s.segPruned.Add(pruned)
}

// resolve finishes what capture deferred until the shard locks were
// released: every cold segment's block is demand-loaded from disk (the
// store is untouched — disk reads must not stall writers) and every
// block cursor is aimed. A segment evicted between capture and thaw
// resolves to an empty cursor (its data is gone exactly as if eviction
// had won the race outright); any other failure aborts the scan with a
// *ColdReadError.
func (s *Store) resolve(buf *scanBuf, sel *selector) error {
	for ci := range buf.cursors {
		for si := range buf.cursors[ci].segs {
			sc := &buf.cursors[ci].segs[si]
			blk := sc.blk
			if sc.cold != nil {
				var err error
				if blk, err = s.thaw(sc.cold); err != nil {
					return err
				}
				sc.cold = nil
			}
			if blk != nil { // else an active page, or a segment evicted under the scan
				sc.aim(sel, blk, nil)
			}
		}
	}
	return nil
}

// Scan visits every record matching the predicate triple in global
// insertion order — the pushed-down evaluation path behind the query
// layer's Predicate. The triple picks the cheapest access path —
//
//   - flow != nil: the flow's single shard (all records of one flow live
//     in one), walking that flow's posting list inside each sealed
//     segment surviving time and bloom pruning — a negative bloom probe
//     prunes a sealed segment before its postings are consulted, which
//     dominates on long-lived stores where a flow touches a handful of
//     the shard's many segments — and the flow's entries of the active
//     one;
//   - concrete link: the link's posting lists inside surviving sealed
//     segments, and its entries of the active ones, of every shard,
//     merged by sequence;
//   - otherwise: a full merge over surviving segments.
//
// In every case whole segments whose [min,max] time bounds miss tr are
// skipped before a record is touched, and surviving records are filtered
// by the remaining predicate terms. The *Record handed to fn is valid
// only until fn returns (copy it to keep it); its Path may be retained
// — path arrays are immutable. The error is nil unless a cold segment
// the scan needed could not be read back (*ColdReadError); the store
// itself is unaffected by such a failure. ScanSince is the same scan
// with a sequence window and early termination.
func (s *Store) Scan(flow *types.FlowID, link types.LinkID, tr types.TimeRange, fn func(*types.Record)) error {
	sel := selector{flow: flow, link: link, tr: tr}
	return s.scan(&sel, func(_ uint64, rec *types.Record) bool {
		fn(rec)
		return true
	})
}

// ScanSince is Scan restricted to records whose global arrival sequence
// lies in (since, until], stopping as soon as fn returns false — the
// incremental-evaluation primitive
// behind installed-query watermarks. since 0 means "from the beginning",
// until 0 means "no upper bound". Shard chains are sequence-monotonic, so
// whole sealed segments at or below the watermark are skipped by one
// bound comparison (counted as pruned in SegmentStats), the straddling
// segment is entered by binary search, and segments past until terminate
// each shard's walk; everything visited still honours the flow/link/time
// predicate. A monitor that captures until = LastSeq() before evaluating
// never double-processes records that arrive mid-scan.
//
// The error is nil unless the scan needed a cold segment that could not
// be read back from disk (*ColdReadError); the scan aborts at that point
// rather than return silently partial results, and the store's resident
// contents are unaffected.
func (s *Store) ScanSince(since, until uint64, flow *types.FlowID, link types.LinkID, tr types.TimeRange, fn func(*types.Record) bool) error {
	sel := selector{since: since, until: until, flow: flow, link: link, tr: tr}
	return s.scan(&sel, func(_ uint64, rec *types.Record) bool { return fn(rec) })
}

// scan runs one selector over the store, handing fn each record with its
// arrival sequence.
func (s *Store) scan(sel *selector, fn func(uint64, *types.Record) bool) error {
	shards := s.shards
	if sel.flow != nil {
		sel.fh = types.StoreHash(*sel.flow)
		si := s.stripe(sel.fh)
		shards = s.shards[si : si+1]
	}
	sel.listed = sel.flow != nil || !sel.link.IsWildcard()
	sel.checkLink = sel.link != types.AnyLink && (sel.flow != nil || !sel.listed)
	buf := getScanBuf()
	defer buf.release()
	s.capture(buf, shards, sel)
	if err := s.resolve(buf, sel); err != nil {
		return err
	}
	buf.merge(sel, fn)
	return nil
}

// Flows returns the distinct ⟨flowID, path⟩ pairs that traversed the link
// pattern during the range — the getFlows host API (§2.1).
//
// Flows, Paths and Count are the host API's error-less conveniences over
// Scan. On a store with a cold tier, a demand-load failure makes their
// answer partial (the failing scan aborts); ColdStats counts such faults,
// and callers that must distinguish partial answers call Scan directly.
func (s *Store) Flows(link types.LinkID, tr types.TimeRange) []types.Flow {
	var seen types.FlowSet
	var out []types.Flow
	s.Scan(nil, link, tr, func(rec *types.Record) {
		if _, fresh := seen.Add(rec.Flow, rec.Path); fresh {
			out = append(out, types.Flow{ID: rec.Flow, Path: rec.Path})
		}
	})
	return out
}

// Paths returns the distinct paths flowID took through the link pattern
// during the range — the getPaths host API.
func (s *Store) Paths(f types.FlowID, link types.LinkID, tr types.TimeRange) []types.Path {
	var seen types.FlowSet
	var out []types.Path
	s.Scan(&f, link, tr, func(rec *types.Record) {
		if _, fresh := seen.Add(f, rec.Path); fresh {
			out = append(out, rec.Path)
		}
	})
	return out
}

// Count returns packet and byte totals for a ⟨flowID, path⟩ pair within
// the range — the getCount host API. A nil path aggregates all paths.
func (s *Store) Count(f types.Flow, tr types.TimeRange) (bytes, pkts uint64) {
	s.Scan(&f.ID, types.AnyLink, tr, func(rec *types.Record) {
		if f.Path != nil && !rec.Path.Equal(f.Path) {
			return
		}
		bytes += rec.Bytes
		pkts += rec.Pkts
	})
	return bytes, pkts
}
