package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceGoldenJSON is one execution's span tree as json.Marshal printed it
// before the arena representation landed: a direct query whose batch
// answered h5 (its scan span, three counters), dropped h6 after a
// retry, and hedged h7 on a reused slot. Start times and durations are
// fixed, so the document is both the input and the expected output.
const traceGoldenJSON = `{"name":"query","start":"2026-01-02T03:04:05.000000006Z","dur":7654321,` +
	`"attrs":[{"k":"trace","v":"00c0ffee00c0ffee"},{"k":"op","v":"topk"},{"k":"hosts","v":"3"},{"k":"error","v":"a \u003c b \u0026 \"c\""}],` +
	`"children":[` +
	`{"name":"merge","start":"2026-01-02T03:04:05.0000003Z","dur":1500,"attrs":[{"k":"children","v":"3"}]},` +
	`{"name":"batch","start":"2026-01-02T03:04:05.0000001Z","dur":5000000,"attrs":[{"k":"hosts","v":"2"}],` +
	`"children":[` +
	`{"name":"rpc","start":"2026-01-02T03:04:05.0000002Z","dur":0,"attrs":[{"k":"host","v":"h5"}],` +
	`"children":[{"name":"scan","start":"2026-01-02T03:04:05.00000021Z","dur":999,` +
	`"attrs":[{"k":"records","v":"4"},{"k":"segments_scanned","v":"12"},{"k":"segments_pruned","v":"-1"}]}]},` +
	`{"name":"rpc","start":"2026-01-02T03:04:05.00000015Z","dur":2000000000,` +
	`"attrs":[{"k":"host","v":"h6"},{"k":"retried","v":"2"},{"k":"dropped","v":"true"}]}]},` +
	`{"name":"rpc","start":"2026-01-02T03:04:05.00000025Z","dur":61000,"attrs":[{"k":"host","v":"h7"}],` +
	`"children":[{"name":"hedge","start":"2026-01-02T03:04:05.0000004Z","dur":49501,` +
	`"attrs":[{"k":"host","v":"h7"},{"k":"slot","v":"reused"}]}]}]}`

// traceGoldenRender is Render() of that tree, as pathdumpctl -trace
// printed it: children in start order, durations rounded to microseconds.
const traceGoldenRender = "query trace=00c0ffee00c0ffee op=topk hosts=3 error=a < b & \"c\" 7.654ms\n" +
	"  batch hosts=2 5ms\n" +
	"    rpc host=h6 retried=2 dropped=true 2s\n" +
	"    rpc host=h5 0s\n" +
	"      scan records=4 segments_scanned=12 segments_pruned=-1 1µs\n" +
	"  rpc host=h7 61µs\n" +
	"    hedge host=h7 slot=reused 50µs\n" +
	"  merge children=3 2µs\n"

// TestTraceGolden pins what an operator sees of a trace — the rendered
// outline and the JSON that /slowlog and pathdumpctl -trace carry —
// byte for byte, whatever the span's in-memory representation. The tree
// is built by unmarshalling a committed document, so the test compiles
// against, and passes on, both representations.
func TestTraceGolden(t *testing.T) {
	var root Span
	if err := json.Unmarshal([]byte(traceGoldenJSON), &root); err != nil {
		t.Fatal(err)
	}
	if got := root.Render(); got != traceGoldenRender {
		t.Errorf("Render:\n%s\nwant:\n%s", got, traceGoldenRender)
	}
	b, err := json.Marshal(&root)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != traceGoldenJSON {
		t.Errorf("Marshal:\n%s\nwant:\n%s", b, traceGoldenJSON)
	}
	// JSON → Unmarshal → Marshal is a fixed point from the output too.
	var again Span
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	if b2, _ := json.Marshal(&again); string(b2) != traceGoldenJSON {
		t.Errorf("second round trip:\n%s", b2)
	}
	for key, want := range map[string]string{"trace": "00c0ffee00c0ffee", "hosts": "3", "error": `a < b & "c"`, "absent": ""} {
		if got := root.Attr(key); got != want {
			t.Errorf("Attr(%q) = %q, want %q", key, got, want)
		}
	}
}

// The golden batch span's two children, as the golden document spells
// them.
const (
	goldenRPC5 = `{"name":"rpc","start":"2026-01-02T03:04:05.0000002Z","dur":0,"attrs":[{"k":"host","v":"h5"}],` +
		`"children":[{"name":"scan","start":"2026-01-02T03:04:05.00000021Z","dur":999,` +
		`"attrs":[{"k":"records","v":"4"},{"k":"segments_scanned","v":"12"},{"k":"segments_pruned","v":"-1"}]}]}`
	goldenRPC6 = `{"name":"rpc","start":"2026-01-02T03:04:05.00000015Z","dur":2000000000,` +
		`"attrs":[{"k":"host","v":"h6"},{"k":"retried","v":"2"},{"k":"dropped","v":"true"}]}`
)

// TestTraceGoldenDerived: the golden document with its batch span's
// children built on read, through Derive, renders and marshals byte for
// byte as the golden tree does — first and every time after, from
// several readers at once — and a span Derive hangs (AddChild of a span
// another tree holds) is never written to.
func TestTraceGoldenDerived(t *testing.T) {
	kids := `,"children":[` + goldenRPC5 + `,` + goldenRPC6 + `]`
	if !strings.Contains(traceGoldenJSON, kids) {
		t.Fatal("the golden document no longer spells its batch children as goldenRPC5 and goldenRPC6")
	}
	var root Span
	if err := json.Unmarshal([]byte(strings.Replace(traceGoldenJSON, kids, "", 1)), &root); err != nil {
		t.Fatal(err)
	}
	var batch *Span
	for _, c := range root.Children {
		if c.Name == "batch" {
			batch = c
		}
	}
	var rpc5, rpc6 Span
	if err := json.Unmarshal([]byte(goldenRPC5), &rpc5); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(goldenRPC6), &rpc6); err != nil {
		t.Fatal(err)
	}
	batch.Derive(func(into *Span) {
		into.AddChild(&rpc5)
		into.AddChild(&rpc6)
	})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if got := root.Render(); got != traceGoldenRender {
					t.Errorf("Render:\n%s\nwant:\n%s", got, traceGoldenRender)
				}
				if b, err := json.Marshal(&root); err != nil || string(b) != traceGoldenJSON {
					t.Errorf("Marshal (%v):\n%s\nwant:\n%s", err, b, traceGoldenJSON)
				}
			}
		}()
	}
	wg.Wait()
	if rpc5.next != nil || rpc6.next != nil {
		t.Error("a derived read linked the spans it hung")
	}
}

// TestDerivedSpans: spans a hook starts begin at the span's end and last
// no time, whatever their Finish says, and come after the span's own
// children; Attr never runs the hook.
func TestDerivedSpans(t *testing.T) {
	batch := NewSpan("batch")
	batch.SetInt("hosts", 2)
	batch.StartChild("attempt").Finish()
	calls := 0
	batch.Derive(func(into *Span) {
		calls++
		for _, h := range []string{"h1", "h2"} {
			rpc := into.StartChild("rpc")
			rpc.SetAttr("host", h)
			scan := rpc.StartChild("scan")
			time.Sleep(time.Millisecond)
			scan.Finish()
		}
	})
	batch.Finish()
	if batch.Attr("hosts") != "2" || calls != 0 {
		t.Fatalf("Attr ran the hook %d times", calls)
	}
	end := batch.Start.Add(batch.Dur)
	var names []string
	for _, c := range batch.Children {
		names = append(names, c.Name+" "+c.Attr("host"))
		if c.Name != "rpc" {
			continue
		}
		for _, s := range c.Children {
			if !c.Start.Equal(end) || c.Dur != 0 || !s.Start.Equal(end) || s.Dur != 0 {
				t.Errorf("derived %s/%s starts %v and %v and lasts %v and %v, want the batch's end %v and 0",
					c.Name, s.Name, c.Start, s.Start, c.Dur, s.Dur, end)
			}
		}
	}
	if got := strings.Join(names, ","); got != "attempt ,rpc h1,rpc h2" {
		t.Errorf("children %s, want the span's own, then the derived ones in order", got)
	}
	if calls != 1 {
		t.Errorf("one read ran the hook %d times", calls)
	}
}
