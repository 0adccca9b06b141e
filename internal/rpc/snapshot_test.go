package rpc

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// TestSnapshotTargetUnsupportedOp: a daemon serving a bare TIB snapshot
// must answer data queries normally but reply 501 to ops that need the
// live agent runtime (the regression surface behind query.ErrUnsupported).
func TestSnapshotTargetUnsupportedOp(t *testing.T) {
	store := tib.NewStore()
	store.Add(types.Record{
		Flow:  types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 80, Proto: 6},
		Path:  types.Path{0, 8, 16},
		STime: 0, ETime: 5, Bytes: 700, Pkts: 7,
	})
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: store}}).Handler())
	defer srv.Close()
	tr := &HTTPTransport{URLs: map[types.HostID]string{1: srv.URL}}

	res, meta, err := tr.Query(context.Background(), 1, query.Query{Op: query.OpFlows, Link: types.AnyLink})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || meta.RecordsScanned != 1 {
		t.Fatalf("snapshot data query = %+v, meta %+v", res, meta)
	}

	_, _, err = tr.Query(context.Background(), 1, query.Query{Op: query.OpPoorTCP, Threshold: 3})
	if err == nil {
		t.Fatal("poor_tcp against a snapshot store did not error")
	}
	if !strings.Contains(err.Error(), "501") || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("err = %v, want a 501 naming the unsupported op", err)
	}

	// The same explicit error flows through batched replies.
	ms := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		1: SnapshotTarget{Store: store},
	}}).Handler())
	defer ms.Close()
	trb := &HTTPTransport{URLs: map[types.HostID]string{1: ms.URL, 2: ms.URL}}
	replies, err := trb.QueryMany(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpPoorTCP}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if replies[0].Err == nil || !strings.Contains(replies[0].Err.Error(), "not supported") {
		t.Errorf("batched reply err = %v, want unsupported", replies[0].Err)
	}

	// Control plane: snapshots accept no installed queries — install
	// must answer 501, not fabricate an ID.
	if _, err := tr.Install(context.Background(), 1, query.Query{Op: query.OpConformance, MaxPathLen: 4}, types.Second); err == nil {
		t.Error("install against a snapshot store did not error")
	} else if !strings.Contains(err.Error(), "501") {
		t.Errorf("install err = %v, want 501", err)
	}
	if err := tr.Uninstall(context.Background(), 1, 5); err == nil {
		t.Error("uninstall against a snapshot store did not error")
	}
}

// TestSnapshotEndpointPullAndServe: GET /snapshot streams a live store's
// segment-wise snapshot; the pulled bytes restore into an offline store
// that answers the same queries — the full -pull-snapshot round trip,
// against both server shapes.
func TestSnapshotEndpointPullAndServe(t *testing.T) {
	store := tib.NewStoreConfig(tib.Config{SegmentRecords: 64})
	for i := 0; i < 1000; i++ {
		store.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i % 40), DstIP: 2, SrcPort: 9, DstPort: 80, Proto: 6},
			Path:  types.Path{0, 8, 16},
			STime: types.Time(i), ETime: types.Time(i + 5), Bytes: uint64(i), Pkts: 1,
		})
	}
	srv := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: store}}).Handler())
	defer srv.Close()
	ms := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{
		3: SnapshotTarget{Store: store},
	}}).Handler())
	defer ms.Close()

	for name, tc := range map[string]struct {
		url  string
		host types.HostID
	}{
		"single-agent": {srv.URL, 1},
		"multi-agent":  {ms.URL, 3},
	} {
		tr := &HTTPTransport{URLs: map[types.HostID]string{tc.host: tc.url}}
		var buf bytes.Buffer
		n, err := tr.PullSnapshot(context.Background(), tc.host, &buf)
		if err != nil {
			t.Fatalf("%s: PullSnapshot: %v", name, err)
		}
		if n == 0 || int64(buf.Len()) != n {
			t.Fatalf("%s: pulled %d bytes, buffered %d", name, n, buf.Len())
		}
		restored, err := tib.ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if restored.Len() != store.Len() {
			t.Fatalf("%s: restored %d of %d records", name, restored.Len(), store.Len())
		}
		// The restored store serves queries offline through SnapshotTarget.
		off := httptest.NewServer((&AgentServer{T: SnapshotTarget{Store: restored}}).Handler())
		offTr := &HTTPTransport{URLs: map[types.HostID]string{tc.host: off.URL}}
		res, meta, err := offTr.Query(context.Background(), tc.host,
			query.Query{Op: query.OpFlows, Link: types.LinkID{A: 8, B: 16}})
		off.Close()
		if err != nil {
			t.Fatalf("%s: offline query: %v", name, err)
		}
		if len(res.Flows) != 40 || meta.RecordsScanned != store.Len() {
			t.Fatalf("%s: offline query = %d flows over %d records", name, len(res.Flows), meta.RecordsScanned)
		}
	}

	// A watermark an older client still sends is ignored: the answer is
	// the whole store, which ReadSnapshot restores.
	resp, err := http.Get(srv.URL + "/snapshot?since_seq=500")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := tib.ReadSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil || restored.Len() != store.Len() {
		t.Fatalf("GET /snapshot?since_seq=500: %v; want all %d records", err, store.Len())
	}

	// A multi-agent daemon rejects snapshot pulls for hosts it does not
	// serve, with a typed status error.
	trBad := &HTTPTransport{URLs: map[types.HostID]string{9: ms.URL}}
	_, err = trBad.PullSnapshot(context.Background(), 9, &bytes.Buffer{})
	var se *StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != 404 {
		t.Errorf("snapshot pull for an unserved host = %v, want a typed *StatusError(404)", err)
	}
}

// TestSnapshotMidBodyFailureIsVisible: a snapshot that dies after its
// status line is committed — here a cold-tier file truncated on disk —
// reaches the puller as a stream its loader rejects, and on the daemon's
// side is counted on /metrics and logged with the host, instead of living only in ColdStats.Faults.
func TestSnapshotMidBodyFailureIsVisible(t *testing.T) {
	coldDir := t.TempDir()
	store := tib.NewStoreConfig(tib.Config{SegmentRecords: 16, ColdDir: coldDir})
	for i := 0; i < 1000; i++ {
		st := types.Time(i) * types.Millisecond
		store.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i % 100), DstIP: 2, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Path:  types.Path{0, types.SwitchID(8 + i%4), 16},
			STime: st, ETime: st + types.Millisecond, Bytes: uint64(i), Pkts: 1,
		})
	}
	if segs, _, err := store.SpillBefore(500 * types.Millisecond); err != nil || segs == 0 {
		t.Fatalf("spilled %d segments (err %v)", segs, err)
	}
	files, err := filepath.Glob(filepath.Join(coldDir, "*.cold"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cold files (err %v)", err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	reg := obs.NewRegistry()
	for name, h := range map[string]http.Handler{
		"instrumented": (&MultiAgentServer{Targets: map[types.HostID]Target{3: SnapshotTarget{Store: store}}, Obs: &ServerObs{Registry: reg}}).Handler(),
		"nil-obs":      (&AgentServer{T: SnapshotTarget{Store: store}}).Handler(),
	} {
		srv := httptest.NewServer(h)
		tr := &HTTPTransport{URLs: map[types.HostID]string{3: srv.URL}}
		var buf bytes.Buffer
		_, pullErr := tr.PullSnapshot(context.Background(), 3, &buf)
		srv.Close()
		if pullErr == nil {
			if _, err := tib.ReadSnapshot(&buf); err == nil {
				t.Fatalf("%s: a snapshot over a truncated cold file pulled and loaded cleanly", name)
			}
		}
	}
	if got := reg.Expose(); !strings.Contains(got, "pathdump_rpc_snapshot_errors_total 1") {
		t.Errorf("snapshot failure not counted:\n%s", got)
	}
	lines := strings.Count(logged.String(), "failed mid-stream")
	if lines != 2 || !strings.Contains(logged.String(), `host="3" failed`) {
		t.Errorf("want one log line per failed snapshot naming the host, got %d:\n%s", lines, logged.String())
	}
}
