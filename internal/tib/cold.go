// Cold tier: sealed segments spilled to disk and demand-loaded on scan.
//
// The paper fixes each host's TIB to an in-memory budget; the cold tier
// extends lookback past that budget without growing the resident set.
// SpillBefore moves sealed segments whose newest record is older than
// the caller's cutoff out to one file each under Config.ColdDir. The
// in-RAM segment stub keeps everything scans need to *prune* — time
// bounds, sequence bounds, the flow bloom — while the block (the actual
// footprint) leaves RAM.
//
// A cold file is the segment's block, byte for byte: spill writes it,
// thaw reads it back through openBlock's validator, so a truncated or
// corrupt file surfaces as a typed *ColdReadError instead of a panic or
// a silently short scan. Reads are transient: the thawed block lives as
// long as the scan's pooled buffers and the store is never mutated by a
// read, so a thaw failure leaves it exactly as it was.
package tib

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"pathdump/internal/types"
)

// ColdReadError is the typed error a scan or snapshot returns when a
// cold segment's backing file cannot be read back (missing without a
// concurrent eviction to explain it, truncated mid-stream, or failing
// the snapshot validator). The store's resident contents are unaffected:
// the failing scan aborts, later scans that prune the segment succeed,
// and ColdStats counts the fault.
type ColdReadError struct {
	// Path is the cold file that failed.
	Path string
	// Err is the underlying cause (an *os.PathError or a block
	// validation failure).
	Err error
}

// Error implements error.
func (e *ColdReadError) Error() string {
	return fmt.Sprintf("tib: cold segment %s: %v", e.Path, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ColdReadError) Unwrap() error { return e.Err }

// ColdStats summarises the cold tier: how many segments/records are
// currently spilled, their estimated thawed footprint, and the
// cumulative demand-load and fault counts.
type ColdStats struct {
	// Segments and Records count what is currently spilled.
	Segments, Records int
	// Bytes estimates what the spilled records would cost resident.
	Bytes int64
	// Loads counts demand-loads (thaws) served since the store was
	// built; Faults counts failed ones (ColdReadError).
	Loads, Faults uint64
}

// ColdLoads is the number of cold segments demand-loaded since the store
// was built: ColdStats().Loads, read from its counter alone.
func (s *Store) ColdLoads() uint64 { return s.coldLoads.Load() }

// ColdStats returns the current cold-tier counters.
func (s *Store) ColdStats() ColdStats {
	st := ColdStats{
		Loads:  s.coldLoads.Load(),
		Faults: s.coldFaults.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, seg := range sh.segs() {
			if seg.cold {
				st.Segments++
				st.Records += seg.n
				st.Bytes += seg.coldBytes
			}
		}
		sh.mu.RUnlock()
	}
	return st
}

// coldFileName names a spilled segment by its frozen sequence bounds.
// Sequence numbers are never reused, so names are unique for the life
// of the store.
func coldFileName(dir string, lo, hi uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x-%016x.cold", lo, hi))
}

// SpillBefore moves every sealed, resident segment whose newest record
// ended strictly before cutoff out to the cold tier, returning how many
// segments and records were spilled. No-op unless Config.ColdDir is
// set. Repeated calls with slowly advancing cutoffs are cheap: a cutoff
// that has not advanced a full SegmentSpan (or, spanless, a quarter of
// the retention window) past the last effective one returns without
// touching a lock, so the agent can call it per exported record.
//
// File writes happen outside the shard locks — a block is immutable, so
// it is written from a reference captured under a momentary read lock,
// and the in-RAM stub flips to cold under the write lock only after its
// file is durably written. A segment evicted
// between capture and flip keeps its file from being adopted (the
// orphan file is removed).
func (s *Store) SpillBefore(cutoff types.Time) (segments, records int, err error) {
	if s.coldDir == "" || !s.advance(&s.spillFloor, cutoff) {
		return 0, 0, nil
	}

	// Capture spill candidates under momentary read locks.
	type victim struct {
		seg *segment
		blk *block
	}
	var victims []victim
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, seg := range sh.segs() {
			if seg.blk != nil && seg.maxTime < cutoff {
				victims = append(victims, victim{seg, seg.blk})
			}
		}
		sh.mu.RUnlock()
	}
	for _, v := range victims {
		spilled, err := s.spillOne(v.seg, v.blk)
		if err != nil {
			return segments, records, err
		}
		if spilled { // the segment was not evicted meanwhile
			segments++
			records += v.blk.n
		}
	}
	return segments, records, nil
}

// spillOne writes one sealed segment's cold file — tmp, fsync, rename, so
// readers never observe a half-written file — and flips the in-RAM stub
// under the shard write lock, keeping a copy of the bloom. It reports
// whether the segment went cold; one evicted, compacted or spilled
// between capture and flip does not (the orphan file is removed).
func (s *Store) spillOne(seg *segment, blk *block) (bool, error) {
	path := coldFileName(s.coldDir, blk.seqLo, blk.seqHi)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return false, err
	}
	_, werr := f.Write(blk.b)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return false, werr
	}
	sh := &s.shards[blk.shard]
	sh.mu.Lock()
	if !slices.Contains(sh.segs(), seg) || seg.blk != blk {
		sh.mu.Unlock()
		os.Remove(path)
		return false, nil
	}
	seg.cold, seg.coldPath, seg.coldBytes = true, path, seg.bytes
	seg.blk, seg.filter, seg.bytes = nil, slices.Clone(blk.filter), 0
	sh.mu.Unlock()
	s.bytesTotal.Add(-seg.coldBytes)
	s.coldBytesTotal.Add(seg.coldBytes)
	return true, nil
}

// thaw loads a cold segment's block back from disk. The store is not
// mutated: the block lives only as long as the scan (or snapshot) that
// requested it. A nil block with a nil error means the segment was
// evicted concurrently (its data is gone exactly as if the eviction had
// won the race before the scan started) — callers skip it.
func (s *Store) thaw(seg *segment) (*block, error) {
	blk, err := readColdFile(seg.coldPath)
	if err == nil && (blk.n != seg.n || blk.seqLo != seg.seqLo || blk.seqHi != seg.seqHi) {
		err = fmt.Errorf("cold file does not match segment metadata (%d recs, seq %d..%d; want %d recs, seq %d..%d)",
			blk.n, blk.seqLo, blk.seqHi, seg.n, seg.seqLo, seg.seqHi)
	}
	if err != nil {
		if seg.dropped.Load() {
			// Evicted under the scan: the file was legitimately
			// unlinked after this scan captured the segment.
			return nil, nil
		}
		s.coldFaults.Add(1)
		return nil, &ColdReadError{Path: seg.coldPath, Err: err}
	}
	s.coldLoads.Add(1)
	return blk, nil
}

// readColdFile reads and validates one cold file. The block aliases the
// bytes read: no column is copied.
func readColdFile(path string) (*block, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return openBlock(b, true)
}
