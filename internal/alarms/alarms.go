// Package alarms is the controller-side alarm pipeline of the
// continuous-monitoring plane: every alarm an agent raises (§2.1's
// Alarm(flowID, Reason, Paths)) flows through one Pipeline, which
//
//   - keeps a bounded ring-buffer history with monotone entry IDs — the
//     previous unbounded append-only log is gone; an alarm storm costs a
//     fixed amount of memory, never more, and the ring grows toward that
//     bound as alarms arrive, so a controller that sees none holds none;
//   - deduplicates: repeated firings of the same ⟨host, flow, reason⟩
//     within the suppression window fold into the earlier entry
//     (Count/LastAt updated) instead of producing new entries — an
//     installed monitor firing every 200 ms yields one alarm, not 300/min;
//   - rate-limits: a global token bucket caps how many distinct new
//     entries per second the pipeline admits, so a misbehaving fleet
//     cannot melt the controller;
//   - serves filterable history queries (by entry ID, reason, host, time
//     range) and live subscriptions — the data behind GET /alarms and
//     GET /alarms/stream;
//   - counts everything (Stats), ExecStats-style.
//
// All methods are safe for concurrent use; Publish never blocks on a slow
// subscriber (their channel drops and the drop is counted).
package alarms

import (
	"math"
	"sync"
	"time"

	"pathdump/internal/types"
)

// DefaultHistory is the default ring-buffer capacity.
const DefaultHistory = 4096

// Config parameterises a Pipeline. The zero value keeps every alarm
// distinct (no suppression, no rate limit) in a DefaultHistory-deep ring.
type Config struct {
	// History is the ring-buffer capacity: the newest History entries are
	// queryable; older ones fall off (<= 0 selects DefaultHistory). The
	// ring is allocated as it fills, never past History.
	History int
	// Suppress is the dedup window: a firing of the same
	// ⟨host, flow, reason⟩ within Suppress of the key's previous firing
	// folds into the existing entry instead of creating a new one. The
	// window is sliding — a monitor firing every 200 ms under a 5 s window
	// folds forever, not once per 5 s. 0 disables dedup.
	Suppress time.Duration
	// Rate caps distinct new entries per second through a token bucket
	// (suppressed repeats are not charged); 0 = unlimited.
	Rate float64
	// Burst is the bucket depth (default max(1, ceil(Rate))).
	Burst int
}

// Entry is one admitted alarm in the history ring.
type Entry struct {
	// ID is the entry's monotone identity (1-based): streams resume and
	// history queries page by it.
	ID uint64 `json:"id"`
	// Alarm is the first firing's payload.
	Alarm types.Alarm `json:"alarm"`
	// Count is how many firings folded into this entry (1 = never
	// deduplicated).
	Count int `json:"count"`
	// FirstAt/LastAt bracket the firings' receipt times.
	FirstAt time.Time `json:"first_at"`
	LastAt  time.Time `json:"last_at"`
}

// Stats counts the pipeline's traffic.
type Stats struct {
	// Received counts every Publish call.
	Received uint64 `json:"received"`
	// Admitted counts new history entries (distinct alarms).
	Admitted uint64 `json:"admitted"`
	// Suppressed counts firings folded into an existing entry by the
	// dedup window.
	Suppressed uint64 `json:"suppressed"`
	// RateLimited counts distinct alarms refused by the token bucket
	// (they do not enter history).
	RateLimited uint64 `json:"rate_limited"`
	// StreamDropped counts entries a slow subscriber's buffer discarded.
	StreamDropped uint64 `json:"stream_dropped"`
	// Subscribers is the current live subscription count.
	Subscribers int `json:"subscribers"`
	// Evicted counts entries that fell off the ring.
	Evicted uint64 `json:"evicted"`
}

// Filter selects history entries. The zero value selects everything.
type Filter struct {
	// SinceID selects entries with ID > SinceID.
	SinceID uint64
	// Reason, when non-empty, selects that reason only.
	Reason types.Reason
	// Host, when non-nil, selects that host only.
	Host *types.HostID
	// From/To, when non-zero, bound the entries' LastAt receipt time.
	From, To time.Time
	// Limit caps the result length, keeping the newest matches (0 = all).
	Limit int
}

// Matches reports whether an entry passes the filter (Limit aside). The
// streaming endpoint applies it to live entries as they arrive.
func (f Filter) Matches(e *Entry) bool {
	if e.ID <= f.SinceID {
		return false
	}
	if f.Reason != "" && e.Alarm.Reason != f.Reason {
		return false
	}
	if f.Host != nil && e.Alarm.Host != *f.Host {
		return false
	}
	if !f.From.IsZero() && e.LastAt.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && e.LastAt.After(f.To) {
		return false
	}
	return true
}

// dedupKey identifies a suppressible alarm.
type dedupKey struct {
	host   types.HostID
	flow   types.FlowID
	reason types.Reason
}

// Pipeline routes alarms: dedup → rate limit → ring history + live
// subscribers.
type Pipeline struct {
	cfg Config
	// now is the pipeline clock (time.Now outside tests). Suppression and
	// rate limiting run on receipt (wall) time: agents across a
	// deployment stamp Alarm.At from their own virtual clocks, which are
	// not comparable.
	now func() time.Time

	mu      sync.Mutex
	ring    []Entry // ring[(id-1) % cfg.History] holds entry id while it survives
	nextID  uint64  // next entry ID to assign (last assigned = nextID-1)
	lastKey map[dedupKey]uint64
	subs    map[*Subscription]struct{}
	stats   Stats

	tokens     float64
	lastRefill time.Time
}

// New builds a pipeline.
func New(cfg Config) *Pipeline { return newClocked(cfg, time.Now) }

// newClocked builds a pipeline that reads the given clock.
func newClocked(cfg Config, now func() time.Time) *Pipeline {
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(math.Ceil(cfg.Rate))
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &Pipeline{
		cfg:        cfg,
		now:        now,
		nextID:     1,
		lastKey:    make(map[dedupKey]uint64),
		subs:       make(map[*Subscription]struct{}),
		tokens:     float64(cfg.Burst),
		lastRefill: now(),
	}
}

// slot returns the ring entry for id, or nil once it has fallen off.
// Caller holds p.mu.
func (p *Pipeline) slot(id uint64) *Entry {
	if id == 0 || id >= p.nextID {
		return nil
	}
	e := &p.ring[(id-1)%uint64(p.cfg.History)]
	if e.ID != id {
		return nil // overwritten by a newer entry
	}
	return e
}

// Publish routes one alarm through dedup, rate limiting, history and the
// live subscribers. It reports whether the alarm was admitted as a new
// entry; a suppressed repeat returns the entry it folded into (with
// admitted == false), and a rate-limited alarm returns a zero Entry.
func (p *Pipeline) Publish(a types.Alarm) (e Entry, admitted bool) {
	now := p.now()
	p.mu.Lock()
	p.stats.Received++

	// Dedup: fold into a live same-key entry within the sliding window.
	key := dedupKey{host: a.Host, flow: a.Flow, reason: a.Reason}
	if p.cfg.Suppress > 0 {
		if prev := p.slot(p.lastKey[key]); prev != nil && now.Sub(prev.LastAt) <= p.cfg.Suppress {
			prev.Count++
			prev.LastAt = now
			p.stats.Suppressed++
			e = *prev
			p.mu.Unlock()
			return e, false
		}
	}

	// Rate limit distinct new entries.
	if p.cfg.Rate > 0 {
		p.tokens += now.Sub(p.lastRefill).Seconds() * p.cfg.Rate
		if max := float64(p.cfg.Burst); p.tokens > max {
			p.tokens = max
		}
		p.lastRefill = now
		if p.tokens < 1 {
			p.stats.RateLimited++
			p.mu.Unlock()
			return Entry{}, false
		}
		p.tokens--
	}

	e = Entry{ID: p.nextID, Alarm: a, Count: 1, FirstAt: now, LastAt: now}
	p.nextID++
	if n := len(p.ring); n < p.cfg.History {
		// Until the ring is full, entry id sits at id-1: it grows by
		// doubling, from 64, to exactly History (append would round the
		// last step past it).
		if n == cap(p.ring) {
			grown := make([]Entry, n, min(p.cfg.History, max(2*n, 64)))
			copy(grown, p.ring)
			p.ring = grown
		}
		p.ring = append(p.ring, e)
	} else {
		// Overwrite the oldest slot; its key mapping dies with it (slot()
		// checks the stored ID, so no map cleanup is needed).
		p.ring[(e.ID-1)%uint64(p.cfg.History)] = e
		p.stats.Evicted++
	}
	if p.cfg.Suppress > 0 {
		p.lastKey[key] = e.ID
		// Bound the dedup map alongside the ring: keys whose entries fell
		// off can never fold again, so sweep them once enough garbage
		// accrues.
		if len(p.lastKey) > 2*p.cfg.History {
			for k, id := range p.lastKey {
				if p.slot(id) == nil {
					delete(p.lastKey, k)
				}
			}
		}
	}
	p.stats.Admitted++
	for sub := range p.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped++
			p.stats.StreamDropped++
		}
	}
	p.mu.Unlock()
	return e, true
}

// History returns the entries matching the filter, oldest first. Entries
// are copies: a later fold updates the pipeline, not the returned slice.
func (p *Pipeline) History(f Filter) []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Entry
	first := uint64(1)
	if p.nextID > uint64(len(p.ring)) {
		first = p.nextID - uint64(len(p.ring))
	}
	for id := first; id < p.nextID; id++ {
		if e := p.slot(id); e != nil && f.Matches(e) {
			out = append(out, *e)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Stats returns a snapshot of the pipeline counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Subscribers = len(p.subs)
	return s
}

// Subscription is one live alarm feed. Entries arrive on C in admission
// order; when the subscriber's buffer is full the newest entry is dropped
// (and counted) rather than blocking the pipeline.
type Subscription struct {
	p       *Pipeline
	ch      chan Entry
	dropped uint64
	closed  bool
}

// Subscribe registers a live feed with the given channel buffer
// (<= 0 selects 64). Callers must drain C and Close when done.
func (p *Pipeline) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{p: p, ch: make(chan Entry, buf)}
	p.mu.Lock()
	p.subs[sub] = struct{}{}
	p.mu.Unlock()
	return sub
}

// C is the subscription's feed.
func (s *Subscription) C() <-chan Entry { return s.ch }

// Dropped reports how many entries this subscription's buffer discarded.
func (s *Subscription) Dropped() uint64 {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription and closes its channel (drain-safe:
// publishes happen under the same lock, so no send can race the close).
func (s *Subscription) Close() {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.p.subs, s)
	close(s.ch)
}
