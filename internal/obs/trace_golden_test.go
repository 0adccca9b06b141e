package obs

import (
	"encoding/json"
	"testing"
)

// traceGoldenJSON is one execution's span tree as json.Marshal printed it
// before the arena representation landed: a direct query whose batch
// answered h5 (synthesized scan span, three counters), dropped h6 after a
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
// outline and the JSON that X-Pathdump-Span, QueryResponse.Span,
// /slowlog and pathdumpctl -trace carry — byte for byte, whatever the
// span's in-memory representation. The tree is built by unmarshalling a
// committed document, so the test compiles against, and passes on, both
// representations.
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

	// An agent's scan span comes back in the X-Pathdump-Span header and
	// is hung under the host's live rpc span, next to whatever the
	// controller adds itself.
	const header = `{"name":"scan","start":"2026-01-02T03:04:05.5Z","dur":1234567,` +
		`"attrs":[{"k":"trace","v":"00c0ffee00c0ffee"},{"k":"records","v":"20000"},{"k":"segments_scanned","v":"3"},` +
		`{"k":"segments_pruned","v":"29"},{"k":"cold_loads","v":"1"}],` +
		`"children":[{"name":"cold-load","start":"2026-01-02T03:04:05.6Z","dur":800000}]}`
	var scan Span
	if err := json.Unmarshal([]byte(header), &scan); err != nil {
		t.Fatal(err)
	}
	rpc := &Span{}
	if err := json.Unmarshal([]byte(`{"name":"rpc","start":"2026-01-02T03:04:05.4Z","dur":2000000,"attrs":[{"k":"host","v":"h0"}]}`), rpc); err != nil {
		t.Fatal(err)
	}
	rpc.AddChild(&scan)
	rpc.StartChild("late").SetAttr("k", "v") // unfinished: renders 0s, after the decoded child
	const want = "rpc host=h0 2ms\n" +
		"  scan trace=00c0ffee00c0ffee records=20000 segments_scanned=3 segments_pruned=29 cold_loads=1 1.235ms\n" +
		"    cold-load 800µs\n" +
		"  late k=v 0s\n"
	if got := rpc.Render(); got != want {
		t.Errorf("attached header span renders:\n%s\nwant:\n%s", got, want)
	}
	if b, _ := json.Marshal(&scan); string(b) != header {
		t.Errorf("header span re-marshals as:\n%s\nwant:\n%s", b, header)
	}
}
