package agent

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// TestAgentExecuteContext: the agent's evaluation loop honours the caller
// context — pre-cancelled contexts never scan, an uncancelled context
// returns exactly the bare store's result (nothing is live), and a cancel
// mid-scan over a large sharded TIB cuts the evaluation short.
func TestAgentExecuteContext(t *testing.T) {
	r := newRig(t, netsim.Config{Seed: 7}, Config{})
	host := r.sim.Topo.Hosts()[0]
	a := r.agents[host.ID]
	const records = 200_000
	for i := 0; i < records; i++ {
		a.Store.Add(types.Record{
			Flow: types.FlowID{
				SrcIP: types.IP(i), DstIP: host.IP,
				SrcPort: uint16(i), DstPort: 80, Proto: types.ProtoTCP,
			},
			Path:  types.Path{types.SwitchID(i % 8), types.SwitchID(8 + i%8), 16},
			STime: types.Time(i), ETime: types.Time(i + 10),
			Bytes: uint64(100 + i), Pkts: 1,
		})
	}

	q := query.Query{Op: query.OpTopK, K: 100}

	// Uncancelled: identical to the bare store's answer.
	res, err := a.ExecuteContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := query.ExecuteContext(context.Background(), q, query.StoreView{S: a.Store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != len(plain.Top) {
		t.Fatalf("ctx result %d entries, plain %d", len(res.Top), len(plain.Top))
	}
	for i := range res.Top {
		if res.Top[i] != plain.Top[i] {
			t.Fatalf("entry %d differs between ctx and plain execution", i)
		}
	}

	// Pre-cancelled: immediate context error.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.ExecuteContext(cctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}

	// Cancelled mid-scan: returns the context error, promptly.
	mctx, mcancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		mcancel()
	}()
	start := time.Now()
	_, err = a.ExecuteContext(mctx, q)
	elapsed := time.Since(start)
	mcancel()
	if err == nil {
		// The scan beat the cancel on a fast machine; that's legal.
		t.Logf("scan completed in %v before the 2 ms cancel", elapsed)
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled evaluation took %v", elapsed)
	}
}
