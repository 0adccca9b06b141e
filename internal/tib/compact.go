// Background compaction: merging runs of small sealed segments.
//
// Retention churn fragments shard chains — byte-budget evictions,
// span-sealed trickles and low-rate shards all leave fleets of tiny
// sealed segments, and every one of them costs a cursor, a bloom probe
// and a posting lookup on every scan that cannot prune it. Compaction
// merges adjacent runs of small sealed segments back up toward the
// configured seal size: the victims' blocks are staged column-wise and
// encoded into one block, postings and bloom included.
//
// Correctness rests on two facts. Shard chains are sequence-monotonic
// and compaction only ever merges *adjacent* segments of one chain, so
// the merged records (a concatenation in chain order) are already in
// global arrival order — scans through a compacted store return exactly
// the records, in exactly the order, the uncompacted store returned.
// And blocks are immutable, so the expensive work (staging, the flow
// sort, the encode) runs outside the shard lock on captured references;
// only the final splice takes the write lock, and it re-verifies that
// every victim still sits where the plan
// found it — a run disturbed by a concurrent eviction or cold-tier
// spill is simply abandoned and retried by a later pass.
package tib

// compactMinSeals is MaybeCompact's trigger threshold: a full
// compaction pass is considered only after this many segments have been
// sealed since the last pass, so the per-record ingest path pays one
// atomic load almost always.
const compactMinSeals = 8

// compactRun is one planned merge: adjacent sealed segments of a single
// shard, in chain order.
type compactRun struct {
	shard int
	segs  []*segment
	// blks and bytes are segs' blocks and summed budget charge, captured
	// with segs under the read lock (a concurrent spill rewrites both).
	blks  []*block
	bytes int64
}

// compactPlan is planShard's scratch, reused from shard to shard and pass
// to pass: the runs of one shard, whose segs and blks are stretches of
// the two buffers below.
type compactPlan struct {
	runs []compactRun
	segs []*segment
	blks []*block
}

// release clears the plan once its runs have committed, so no segment it
// names — a dropped victim above all — stays reachable through it.
func (p *compactPlan) release() {
	clear(p.runs[:cap(p.runs)])
	clear(p.segs[:cap(p.segs)])
	clear(p.blks[:cap(p.blks)])
	p.runs, p.segs, p.blks = p.runs[:0], p.segs[:0], p.blks[:0]
}

// Compactions returns how many segment merges have completed since the
// store was built.
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// Seals reports how many active segments have been sealed since the
// store was built. Cumulative: compaction replaces sealed segments but
// never rewinds this counter.
func (s *Store) Seals() uint64 { return s.sealCount.Load() }

// MaybeCompact runs a compaction pass only when enough segments have
// sealed since the last one and no other compactor is active — cheap
// enough for the agent to call per exported record, mirroring how
// EvictBefore is throttled. Returns how many merged segments were
// produced and how many source segments they replaced (0, 0 when
// compaction is disabled or the pass was skipped).
func (s *Store) MaybeCompact() (merged, replaced int) {
	if s.compactBelow <= 0 {
		return 0, 0
	}
	if s.sealCount.Load()-s.compactMark.Load() < compactMinSeals {
		return 0, 0
	}
	if !s.compactMu.TryLock() {
		return 0, 0 // another compactor is mid-pass
	}
	defer s.compactMu.Unlock()
	merged, replaced = s.compactPass()
	s.compactMark.Store(s.sealCount.Load())
	return merged, replaced
}

// Compact runs one full compaction pass unconditionally (compaction
// must still be enabled via Config.CompactBelow). Safe under concurrent
// ingest, scans and eviction; one pass runs at a time.
func (s *Store) Compact() (merged, replaced int) {
	if s.compactBelow <= 0 {
		return 0, 0
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	merged, replaced = s.compactPass()
	s.compactMark.Store(s.sealCount.Load())
	return merged, replaced
}

// compactPass plans, builds and commits merges for every shard. Caller
// holds compactMu.
func (s *Store) compactPass() (merged, replaced int) {
	target := s.segRecords
	if target <= 0 {
		target = DefaultSegmentRecords
	}
	for i := range s.shards {
		for _, run := range s.planShard(i, target) {
			if s.commitRun(run, s.buildMerged(run)) {
				merged++
				replaced += len(run.segs)
				s.compactions.Add(1)
			}
		}
		s.plan.release()
	}
	return merged, replaced
}

// planShard captures merge candidates under a momentary read lock: runs
// of two or more adjacent sealed, resident segments each smaller than
// CompactBelow, greedily grouped while the merged segment stays at or
// under the seal target. The active segment never participates.
//
// On a time-retained store, a run's merged time span is additionally
// capped at half the retention window. Without the cap, compaction
// would keep gluing old fragments onto freshly sealed ones, producing
// a merged segment whose maxTime tracks the present — a segment that
// never ages past the eviction cutoff, quietly defeating retention and
// cold tiering. With it, eviction staleness is bounded at 1.5x the
// window: merged data waits at most an extra half-window to expire.
//
// It returns this shard's runs only. They live in s.plan, valid until
// its release. Caller holds compactMu.
func (s *Store) planShard(shard, target int) []compactRun {
	spanCap := s.retention / 2
	sh := &s.shards[shard]
	p := &s.plan
	first := len(p.runs)
	// The current run is p.segs[start:] and p.blks[start:]; a flushed run
	// keeps its stretch (later appends only write past it), a dropped one
	// gives it back.
	start, size, charge := len(p.segs), 0, int64(0)
	flush := func() {
		if end := len(p.segs); end-start >= 2 {
			p.runs = append(p.runs, compactRun{shard: shard, segs: p.segs[start:end:end], blks: p.blks[start:end:end], bytes: charge})
		} else {
			p.segs, p.blks = p.segs[:start], p.blks[:start]
		}
		start, size, charge = len(p.segs), 0, 0
	}
	sh.mu.RLock()
	for _, seg := range sh.segs() {
		n := seg.n
		if seg.blk == nil || n >= s.compactBelow { // cold, or the active segment
			flush()
			continue
		}
		if size+n > target {
			flush()
		}
		if len(p.segs) > start && spanCap > 0 && seg.maxTime-p.segs[start].minTime > spanCap {
			flush()
		}
		p.segs, p.blks, charge = append(p.segs, seg), append(p.blks, seg.blk), charge+seg.bytes
		size += n
	}
	flush()
	sh.mu.RUnlock()
	return p.runs[first:]
}

// buildMerged stages a run's blocks in chain order (already ascending in
// global sequence) and encodes the merged block: columns re-based to the
// union's range, paths re-interned, the flow permutation re-sorted and
// the link index rebuilt, all in pooled scratch. Runs lock-free on the
// immutable victims.
func (s *Store) buildMerged(run compactRun) *segment {
	st := getStaging()
	defer st.release()
	for _, blk := range run.blks {
		st.addBlock(blk)
	}
	return sealedSegment(mustOpen(st.encode(run.shard)), run.bytes)
}

// commitRun splices the merged segment over its victims under the shard
// write lock — after re-verifying that every victim still occupies its
// planned position and none has been spilled cold in the meantime. Any
// disturbance (a concurrent EvictBefore, EvictOverBytes or SpillBefore
// claimed a victim) abandons the merge: the chain is left untouched and
// the merged segment is discarded. Byte and record accounting are
// unchanged by a successful commit — compaction moves records, it never
// creates or destroys them.
func (s *Store) commitRun(run compactRun, m *segment) bool {
	sh := &s.shards[run.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	segs := sh.segs()
	start := -1
	for j, seg := range segs {
		if seg == run.segs[0] {
			start = j
			break
		}
	}
	if start < 0 || start+len(run.segs) > len(segs) {
		return false
	}
	for k, want := range run.segs {
		got := segs[start+k]
		if got != want || got.cold {
			return false
		}
	}
	segs[start] = m
	segs = append(segs[:start+1], segs[start+len(run.segs):]...)
	sh.setSegs(segs)
	// Clear the vacated tail of the backing array so the dropped
	// victims are collectable.
	tail := segs[len(segs) : len(segs)+len(run.segs)-1]
	for j := range tail {
		tail[j] = nil
	}
	return true
}
