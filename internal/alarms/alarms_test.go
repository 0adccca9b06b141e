package alarms

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathdump/internal/types"
)

// fakeClock is an injectable pipeline clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func alarm(host int, port uint16, reason types.Reason) types.Alarm {
	return types.Alarm{
		Host:   types.HostID(host),
		Flow:   types.FlowID{SrcIP: 10, DstIP: 20, SrcPort: port, DstPort: 80, Proto: 6},
		Reason: reason,
	}
}

func TestDedupFoldsRepeats(t *testing.T) {
	clk := newFakeClock()
	p := newClocked(Config{Suppress: 5 * time.Second}, clk.Now)

	if _, admitted := p.Publish(alarm(1, 100, types.ReasonPoorPerf)); !admitted {
		t.Fatal("first firing not admitted")
	}
	// 30 repeats inside the (sliding) window: all fold.
	for i := 0; i < 30; i++ {
		clk.Advance(200 * time.Millisecond)
		if e, admitted := p.Publish(alarm(1, 100, types.ReasonPoorPerf)); admitted {
			t.Fatalf("repeat %d admitted as new entry %d", i, e.ID)
		}
	}
	hist := p.History(Filter{})
	if len(hist) != 1 {
		t.Fatalf("history has %d entries, want 1", len(hist))
	}
	if hist[0].Count != 31 {
		t.Fatalf("entry folded %d firings, want 31", hist[0].Count)
	}
	if st := p.Stats(); st.Received != 31 || st.Admitted != 1 || st.Suppressed != 30 {
		t.Fatalf("stats = %+v", st)
	}

	// A different flow, host, or reason is never suppressed.
	if _, admitted := p.Publish(alarm(1, 101, types.ReasonPoorPerf)); !admitted {
		t.Fatal("different flow suppressed")
	}
	if _, admitted := p.Publish(alarm(2, 100, types.ReasonPoorPerf)); !admitted {
		t.Fatal("different host suppressed")
	}
	if _, admitted := p.Publish(alarm(1, 100, types.ReasonPathConformance)); !admitted {
		t.Fatal("different reason suppressed")
	}

	// Past the window the same key is a fresh entry again.
	clk.Advance(6 * time.Second)
	if _, admitted := p.Publish(alarm(1, 100, types.ReasonPoorPerf)); !admitted {
		t.Fatal("post-window firing suppressed")
	}
	if got := len(p.History(Filter{Reason: types.ReasonPoorPerf})); got != 4 {
		t.Fatalf("POOR_PERF entries = %d, want 4", got)
	}
}

func TestRateLimit(t *testing.T) {
	clk := newFakeClock()
	p := newClocked(Config{Rate: 2, Burst: 2}, clk.Now)

	admitted := 0
	for i := 0; i < 10; i++ {
		if _, ok := p.Publish(alarm(1, uint16(i), types.ReasonPoorPerf)); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("burst admitted %d, want 2", admitted)
	}
	if st := p.Stats(); st.RateLimited != 8 {
		t.Fatalf("rate-limited %d, want 8", st.RateLimited)
	}
	// Tokens refill with time.
	clk.Advance(time.Second)
	if _, ok := p.Publish(alarm(1, 50, types.ReasonPoorPerf)); !ok {
		t.Fatal("refilled bucket still refused")
	}
	// Suppressed repeats are not charged against the bucket.
	clk2 := newFakeClock()
	p2 := newClocked(Config{Suppress: time.Minute, Rate: 1, Burst: 1}, clk2.Now)
	p2.Publish(alarm(1, 1, types.ReasonPoorPerf))
	for i := 0; i < 5; i++ {
		clk2.Advance(time.Millisecond)
		if _, admitted := p2.Publish(alarm(1, 1, types.ReasonPoorPerf)); admitted {
			t.Fatal("repeat admitted as new")
		}
	}
	if st := p2.Stats(); st.RateLimited != 0 || st.Suppressed != 5 {
		t.Fatalf("stats = %+v, want 5 suppressed / 0 rate-limited", st)
	}
}

// TestRingBounded is the alarm-storm regression: history memory is capped
// at the configured depth no matter how many alarms arrive.
func TestRingBounded(t *testing.T) {
	p := New(Config{History: 64})
	const storm = 50_000
	for i := 0; i < storm; i++ {
		p.Publish(types.Alarm{
			Host:   types.HostID(i % 97),
			Flow:   types.FlowID{SrcIP: types.IP(i), SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Reason: types.ReasonPoorPerf,
		})
	}
	hist := p.History(Filter{})
	if len(hist) != 64 {
		t.Fatalf("history holds %d entries after a %d-alarm storm, want 64", len(hist), storm)
	}
	// The survivors are the newest, in order.
	for i, e := range hist {
		if want := uint64(storm - 64 + 1 + i); e.ID != want {
			t.Fatalf("entry %d has ID %d, want %d", i, e.ID, want)
		}
	}
	st := p.Stats()
	if st.Admitted != storm || st.Evicted != storm-64 {
		t.Fatalf("stats = %+v", st)
	}
	// The dedup map is bounded alongside the ring.
	p.mu.Lock()
	keys := len(p.lastKey)
	p.mu.Unlock()
	if keys > 2*64 {
		t.Fatalf("dedup map holds %d keys, want <= %d", keys, 2*64)
	}
}

func TestHistoryFilters(t *testing.T) {
	clk := newFakeClock()
	p := newClocked(Config{}, clk.Now)
	h2 := types.HostID(2)
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		reason := types.ReasonPoorPerf
		if i%2 == 1 {
			reason = types.ReasonPathConformance
		}
		p.Publish(alarm(1+i%3, uint16(i), reason))
	}
	if got := len(p.History(Filter{Reason: types.ReasonPathConformance})); got != 5 {
		t.Fatalf("reason filter matched %d, want 5", got)
	}
	if got := len(p.History(Filter{Host: &h2})); got != 3 {
		t.Fatalf("host filter matched %d, want 3", got)
	}
	if got := p.History(Filter{SinceID: 7}); len(got) != 3 || got[0].ID != 8 {
		t.Fatalf("since filter = %+v", got)
	}
	if got := p.History(Filter{Limit: 2}); len(got) != 2 || got[1].ID != 10 {
		t.Fatalf("limit filter = %+v", got)
	}
	from := time.Unix(1000, 0).Add(8 * time.Second)
	if got := len(p.History(Filter{From: from})); got != 3 {
		t.Fatalf("from filter matched %d, want 3", got)
	}
	if got := len(p.History(Filter{To: from})); got != 8 {
		t.Fatalf("to filter matched %d, want 8", got)
	}
}

func TestSubscriptions(t *testing.T) {
	p := New(Config{})
	sub := p.Subscribe(4)
	other := p.Subscribe(4)

	e1, _ := p.Publish(alarm(1, 1, types.ReasonPoorPerf))
	e2, _ := p.Publish(alarm(1, 2, types.ReasonPoorPerf))
	for _, s := range []*Subscription{sub, other} {
		if got := <-s.C(); got.ID != e1.ID {
			t.Fatalf("first delivery ID %d, want %d", got.ID, e1.ID)
		}
		if got := <-s.C(); got.ID != e2.ID {
			t.Fatalf("second delivery ID %d, want %d", got.ID, e2.ID)
		}
	}

	// A full buffer drops (and counts) instead of blocking Publish.
	for i := 0; i < 10; i++ {
		p.Publish(alarm(1, uint16(10+i), types.ReasonPoorPerf))
	}
	if d := sub.Dropped(); d != 6 {
		t.Fatalf("dropped %d, want 6", d)
	}
	if st := p.Stats(); st.StreamDropped != 12 || st.Subscribers != 2 {
		t.Fatalf("stats = %+v", st)
	}

	sub.Close()
	sub.Close() // idempotent
	if _, open := <-func() chan Entry { ch := make(chan Entry); go func() { close(ch) }(); return ch }(); open {
		t.Fatal("sanity")
	}
	// Closed subscriptions no longer receive.
	p.Publish(alarm(1, 99, types.ReasonPoorPerf))
	if st := p.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscribers = %d after close, want 1", st.Subscribers)
	}
	other.Close()
}

// TestConcurrentStorm drives publishers, subscribers, history readers and
// subscription churn concurrently — the -race prover for the pipeline —
// and checks no goroutine survives.
func TestConcurrentStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(Config{History: 256, Suppress: time.Second, Rate: 100_000})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Subscribers: some drain fast, some slowly (forcing drops).
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(slow bool) {
			defer wg.Done()
			sub := p.Subscribe(8)
			defer sub.Close()
			for {
				select {
				case <-stop:
					return
				case _, ok := <-sub.C():
					if !ok {
						return
					}
					if slow {
						time.Sleep(100 * time.Microsecond)
					}
				}
			}
		}(i%2 == 0)
	}
	// Publishers.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p.Publish(types.Alarm{
					Host:   types.HostID(w),
					Flow:   types.FlowID{SrcIP: types.IP(i % 50), SrcPort: uint16(w), DstPort: 80, Proto: 6},
					Reason: types.ReasonPoorPerf,
				})
			}
		}(w)
	}
	// History readers + churner.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.History(Filter{Reason: types.ReasonPoorPerf, Limit: 10})
				p.Stats()
				s := p.Subscribe(1)
				s.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Publishers finish on their own; stop the subscribers after them.
	for {
		select {
		case <-done:
			goto drained
		case <-time.After(time.Millisecond):
			st := p.Stats()
			if st.Received >= 16000 {
				close(stop)
				<-done
				goto drained
			}
		}
	}
drained:
	select {
	case <-stop:
	default:
		close(stop)
	}
	st := p.Stats()
	if st.Received != 16000 {
		t.Fatalf("received %d, want 16000", st.Received)
	}
	if st.Admitted+st.Suppressed+st.RateLimited != st.Received {
		t.Fatalf("counter mismatch: %+v", st)
	}
	if got := len(p.History(Filter{})); got > 256 {
		t.Fatalf("history grew to %d entries, cap 256", got)
	}
	if st.Subscribers != 0 {
		t.Fatalf("subscribers = %d after close, want 0", st.Subscribers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHistoryPagination: streaming resume by SinceID never skips or
// duplicates entries while the ring advances.
func TestHistoryPagination(t *testing.T) {
	p := New(Config{History: 32})
	var cursor uint64
	var got []uint64
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 7; i++ {
			p.Publish(alarm(1, uint16(batch*7+i), types.ReasonPoorPerf))
		}
		for _, e := range p.History(Filter{SinceID: cursor}) {
			got = append(got, e.ID)
			cursor = e.ID
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("pagination gap: %d then %d", got[i-1], got[i])
		}
	}
	if len(got) != 140 {
		t.Fatalf("paged %d entries, want 140", len(got))
	}
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	// No suppression by default: identical alarms stay distinct.
	p.Publish(alarm(1, 1, types.ReasonPoorPerf))
	p.Publish(alarm(1, 1, types.ReasonPoorPerf))
	if got := len(p.History(Filter{})); got != 2 {
		t.Fatalf("default pipeline folded: %d entries, want 2", got)
	}
	// The default ring holds DefaultHistory entries: the next one evicts
	// the oldest, and the ring never grows past the bound on the way.
	for i := 2; i < DefaultHistory+1; i++ {
		p.Publish(alarm(1, uint16(i), types.ReasonPoorPerf))
		if c := cap(p.ring); c > DefaultHistory {
			t.Fatalf("after %d publishes the ring has capacity %d, above %d", i+1, c, DefaultHistory)
		}
	}
	hist := p.History(Filter{})
	if len(hist) != DefaultHistory || hist[0].ID != 2 || hist[len(hist)-1].ID != DefaultHistory+1 {
		t.Fatalf("history holds %d entries (IDs %d..%d), want %d (IDs 2..%d)",
			len(hist), hist[0].ID, hist[len(hist)-1].ID, DefaultHistory, DefaultHistory+1)
	}
	if st := p.Stats(); st.Evicted != 1 || st.Admitted != DefaultHistory+1 {
		t.Fatalf("stats = %+v, want 1 evicted of %d admitted", st, DefaultHistory+1)
	}
	if testing.Verbose() {
		fmt.Printf("stats: %+v\n", p.Stats())
	}
}

// TestIdlePipelineHoldsNoRing: a pipeline that never sees an alarm — a
// controller with no agents raising any — costs its maps and counters,
// not a DefaultHistory-deep ring.
func TestIdlePipelineHoldsNoRing(t *testing.T) {
	const calls = 100
	keep := make([]*Pipeline, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(Config{})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
		t.Fatalf("New(Config{}) allocates %d B, want < 1 KiB", per)
	}
	runtime.KeepAlive(keep)
}

// TestRingGrowsAsItFills publishes 250 alarms into a 100-deep ring with
// dedup on (so the lastKey sweep runs once the map passes twice the
// depth) and checks History against a reference slice after every
// publish: across each growth step, the step that stops at History
// rather than doubling past it, and the wrap.
func TestRingGrowsAsItFills(t *testing.T) {
	const depth = 100
	clk := newFakeClock()
	p := newClocked(Config{History: depth, Suppress: time.Second}, clk.Now)
	var ref []Entry
	for i := 0; i < 250; i++ {
		clk.Advance(time.Millisecond)
		a := alarm(i%3, uint16(i), types.ReasonPoorPerf)
		e, admitted := p.Publish(a)
		if !admitted || e.ID != uint64(i+1) {
			t.Fatalf("publish %d: entry %d admitted=%v", i, e.ID, admitted)
		}
		ref = append(ref, Entry{ID: uint64(i + 1), Alarm: a, Count: 1, FirstAt: clk.Now(), LastAt: clk.Now()})
		if len(ref) > depth {
			ref = ref[1:]
		}
		if got := p.History(Filter{}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("after publish %d: history holds %d entries, want %d", i, len(got), len(ref))
		}
		if c := cap(p.ring); c > depth {
			t.Fatalf("after publish %d: ring capacity %d, above History %d", i, c, depth)
		}
		if n := len(p.lastKey); n > 2*depth+1 {
			t.Fatalf("after publish %d: dedup map holds %d keys, sweep never ran", i, n)
		}
	}
	// A repeat of a surviving key still folds; one whose entry fell off
	// is admitted anew.
	if e, admitted := p.Publish(ref[len(ref)-1].Alarm); admitted || e.Count != 2 {
		t.Fatalf("repeat of a live entry: admitted=%v count=%d", admitted, e.Count)
	}
	if _, admitted := p.Publish(alarm(0, 0, types.ReasonPoorPerf)); !admitted {
		t.Fatal("repeat of an evicted entry was folded")
	}
	if st := p.Stats(); st.Evicted != 250+1-depth {
		t.Fatalf("evicted %d, want %d", st.Evicted, 250+1-depth)
	}
}
