package obs

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/types"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two minted trace IDs collided: %q", a)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := TraceFromContext(context.Background()); got != "" {
		t.Fatalf("untraced context yielded %q", got)
	}
	ctx := ContextWithTrace(context.Background(), "abc123")
	if got := TraceFromContext(ctx); got != "abc123" {
		t.Fatalf("TraceFromContext = %q, want abc123", got)
	}
	if got := TraceFromContext(nil); got != "" {
		t.Fatalf("nil context yielded %q", got)
	}
}

func TestSpanTreeAndRender(t *testing.T) {
	root := NewSpan("query")
	root.SetAttr("op", "topk")
	rpc := root.StartChild("rpc")
	rpc.SetAttr("host", "h2")
	rpc.SetInt("attempt", 1)
	scan := rpc.StartChild("scan")
	scan.SetInt("records", 32)
	scan.Finish()
	rpc.Finish()
	merge := root.StartChild("merge")
	merge.Finish()
	root.Finish()

	if root.Dur <= 0 || rpc.Dur <= 0 {
		t.Fatal("Finish must stamp a positive duration")
	}
	prev := root.Dur
	root.Finish()
	if root.Dur != prev {
		t.Fatal("second Finish must not restamp the duration")
	}
	if got := rpc.Attr("host"); got != "h2" {
		t.Fatalf("Attr(host) = %q, want h2", got)
	}

	out := root.Render()
	for _, want := range []string{"query op=topk", "  rpc host=h2 attempt=1", "    scan records=32", "  merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Children render in start order: rpc began before merge.
	if strings.Index(out, "rpc") > strings.Index(out, "merge") {
		t.Errorf("children out of start order:\n%s", out)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	root := NewSpan("scan")
	root.SetInt("segments", 4)
	root.StartChild("cold-load").Finish()
	root.Finish()
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	kids := back.snapshot().Children
	if back.Name != "scan" || back.Attr("segments") != "4" || len(kids) != 1 {
		t.Fatalf("round trip lost data: %+v", &back)
	}
	if kids[0].Name != "cold-load" {
		t.Fatalf("child lost: %+v", kids[0])
	}
}

// TestSpanConcurrentChildren mirrors the fan-out: many goroutines
// attach and annotate children of one parent while another renders.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := root.StartChild("rpc")
			c.SetInt("host", int64(n))
			if n%2 == 0 {
				c.SetAttr("hedged", "true")
			}
			c.Finish()
			_ = root.Render()
		}(i)
	}
	wg.Wait()
	root.Finish()
	if n := len(root.snapshot().Children); n != 16 {
		t.Fatalf("children = %d, want 16", n)
	}
}

// TestSpanStress is the -race guard for one trace mutated from many
// goroutines, as hedges and sibling subtrees do: 64 of them start,
// annotate, finish and attach spans under one root while another renders
// and marshals the tree. Every span must be there afterwards, with every
// annotation.
func TestSpanStress(t *testing.T) {
	const workers, rounds = 64, 20
	root := NewSpan("query")
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = root.Render()
			if _, err := json.Marshal(root); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := root.StartChild("node")
			node.SetHost("host", types.HostID(w))
			for r := 0; r < rounds; r++ {
				rpc := node.StartChild("rpc")
				rpc.SetHost("host", types.HostID(r))
				rpc.SetInt("round", int64(r))
				rpc.SetAttr("a", "1")
				rpc.SetAttr("overflow", "the fourth attribute leaves the inline array")
				scan := NewSpan("scan") // a foreign trace, as one decoded from a reply
				scan.SetInt("records", int64(r))
				scan.Finish()
				rpc.AddChild(scan)
				rpc.Finish()
			}
			node.Finish()
		}(w)
	}
	wg.Wait()
	root.Finish()
	close(stop)
	reader.Wait()

	nodes := root.snapshot().Children
	if len(nodes) != workers {
		t.Fatalf("root has %d children, want %d", len(nodes), workers)
	}
	for _, node := range nodes {
		rpcs := node.snapshot().Children
		if len(rpcs) != rounds {
			t.Fatalf("node %s has %d rpc spans, want %d", node.Attr("host"), len(rpcs), rounds)
		}
		for r, rpc := range rpcs {
			want := types.HostID(r).String()
			if rpc.Attr("host") != want || rpc.Attr("round") != want[1:] || rpc.Attr("overflow") == "" || rpc.Dur == 0 {
				t.Fatalf("rpc span %d of node %s came out as %s", r, node.Attr("host"), rpc.Render())
			}
			if kids := rpc.snapshot().Children; len(kids) != 1 || kids[0].Attr("records") != want[1:] {
				t.Fatalf("rpc span %d lost its attached scan span: %s", r, rpc.Render())
			}
		}
	}
}

// TestSpanAllocsPerHostQuery pins what the always-on trace costs a
// fan-out: the spans the controller records per answered host — an rpc
// span carrying the host, and the scan span synthesized from the reply's
// three counters — come out of the trace's chunks, typed, unformatted.
// (They cost 11 allocations per host before the arena.)
func TestSpanAllocsPerHostQuery(t *testing.T) {
	const hosts = 128
	perHost := testing.AllocsPerRun(20, func() { spanTree(hosts) }) / hosts
	if perHost > 0.5 {
		t.Errorf("%.2f allocations per host-query for its spans, want <= 0.5", perHost)
	}
}

// spanTree records what one batched direct query over hosts hosts leaves
// in its trace, line for line as the controller does.
func spanTree(hosts int) *Span {
	root := NewSpan("query")
	root.SetAttr("trace", "00c0ffee00c0ffee")
	root.SetAttr("op", "topk")
	root.SetInt("hosts", int64(hosts))
	batch := root.StartChild("batch")
	batch.SetInt("hosts", int64(hosts))
	for h := 0; h < hosts; h++ {
		rpc := batch.StartChild("rpc")
		rpc.SetHost("host", types.HostID(h))
		scan := rpc.StartChild("scan")
		scan.SetInt("records", 4)
		scan.SetInt("segments_scanned", 354)
		scan.SetInt("segments_pruned", 0)
		scan.Finish()
		rpc.Finish()
	}
	batch.Finish()
	merge := root.StartChild("merge")
	merge.SetInt("children", int64(hosts))
	merge.Finish()
	root.Finish()
	return root
}

// BenchmarkSpanTree is the trace's share of a fan-out, gated in CI by its
// allocs/host.
func BenchmarkSpanTree(b *testing.B) {
	const hosts = 128
	b.Run("128-hosts", func(b *testing.B) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			spanTree(hosts)
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/hosts, "allocs/host")
	})
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowQuery{Trace: string(rune('a' + i)), Dur: time.Duration(i), At: time.Unix(int64(i), 0)})
	}
	if l.Total() != 5 {
		t.Fatalf("Total = %d, want 5", l.Total())
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("Entries len = %d, want 3", len(got))
	}
	for i, want := range []string{"e", "d", "c"} {
		if got[i].Trace != want {
			t.Errorf("entry %d = %q, want %q (newest first)", i, got[i].Trace, want)
		}
	}
	if NewSlowLog(0).max != 64 {
		t.Error("max <= 0 must default to 64")
	}
}
