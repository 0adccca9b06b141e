package query

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// pollCancelCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for "the caller hangs up
// mid-scan", with no timing races. Done is never closed; the scans under
// test poll Err directly.
type pollCancelCtx struct {
	context.Context
	polls      atomic.Int64
	cancelAt   int64
	pollsTotal *atomic.Int64
}

func (c *pollCancelCtx) Err() error {
	c.pollsTotal.Add(1)
	if c.polls.Add(1) > c.cancelAt {
		return context.Canceled
	}
	return nil
}

func bigStore(records int) *tib.Store {
	s := tib.NewStore()
	for i := 0; i < records; i++ {
		s.Add(types.Record{
			Flow:  types.FlowID{SrcIP: types.IP(i), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
			Path:  types.Path{types.SwitchID(i % 8), types.SwitchID(8 + i%8), 16},
			STime: types.Time(i), ETime: types.Time(i + 10),
			Bytes: uint64(100 + i), Pkts: 1,
		})
	}
	return s
}

// TestExecuteContextAbortsMidScan: once the context reports cancellation,
// a records scan over a store much larger than CancelCheckEvery stops at
// the next poll instead of finishing, and the partial result is discarded
// in favour of the context error.
func TestExecuteContextAbortsMidScan(t *testing.T) {
	records := 6 * CancelCheckEvery
	s := bigStore(records)
	var polls atomic.Int64
	// Entry check passes; the first in-scan poll (after CancelCheckEvery
	// records) observes the cancellation.
	ctx := &pollCancelCtx{Context: context.Background(), cancelAt: 1, pollsTotal: &polls}
	res, err := ExecuteContext(ctx, Query{Op: OpRecords, Link: types.AnyLink}, StoreView{S: s})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Records) != 0 {
		t.Errorf("cancelled execution leaked %d partial records", len(res.Records))
	}
	if polls.Load() < 2 {
		t.Errorf("scan polled the context %d times — in-scan cancellation checks missing", polls.Load())
	}
}

// TestExecuteContextCompletesUncancelled: a context that never cancels
// yields the whole result, polls and all.
func TestExecuteContextCompletesUncancelled(t *testing.T) {
	records := 2*CancelCheckEvery + 7
	s := bigStore(records)
	res, err := ExecuteContext(context.Background(), Query{Op: OpRecords, Link: types.AnyLink}, StoreView{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != records {
		t.Fatalf("ctx scan %d records, want %d", len(res.Records), records)
	}
	// Flows (the scan behind topk/fsd/conformance) completes too.
	fres, err := ExecuteContext(context.Background(), Query{Op: OpFlows, Link: types.AnyLink}, StoreView{S: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Flows) != records {
		t.Errorf("Flows under context = %d, want %d", len(fres.Flows), records)
	}
}

// TestExecuteContextPreCancelled: a dead context short-circuits before
// any scanning.
func TestExecuteContextPreCancelled(t *testing.T) {
	s := bigStore(CancelCheckEvery)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteContext(ctx, Query{Op: OpTopK, K: 5}, StoreView{S: s})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecuteContextUnsupportedOp: ErrUnsupported still wins over a live
// context — cancellation must not mask the 501 path.
func TestExecuteContextUnsupportedOp(t *testing.T) {
	s := bigStore(8)
	_, err := ExecuteContext(context.Background(), Query{Op: OpPoorTCP, Threshold: 3}, StoreView{S: s})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestStoreViewWithContextAbortsMidScan: a StoreView scan stops at the
// first poll of its context that reports cancellation, and the same view
// under a context that never ends runs to the end.
func TestStoreViewWithContextAbortsMidScan(t *testing.T) {
	records := 6 * CancelCheckEvery
	v := StoreView{S: bigStore(records)}
	var polls atomic.Int64
	ctx := &pollCancelCtx{Context: context.Background(), cancelAt: 0, pollsTotal: &polls}
	visited := 0
	v.ScanRecords(ctx, Predicate{Link: types.AnyLink, Range: types.AllTime}, func(*types.Record) { visited++ })
	if visited != CancelCheckEvery-1 {
		t.Errorf("cancelled scan visited %d records, want %d (stop at the first poll)", visited, CancelCheckEvery-1)
	}
	if polls.Load() != 1 {
		t.Errorf("context polled %d times, want 1", polls.Load())
	}
	visited = 0
	v.ScanRecords(context.Background(), Predicate{Link: types.AnyLink, Range: types.AllTime}, func(*types.Record) { visited++ })
	if visited != records {
		t.Errorf("uncancelled scan visited %d records, want %d", visited, records)
	}
}

// TestExecuteContextWallClock: a real context.WithCancel fired from
// another goroutine cuts a large top-k short well before a full scan
// would finish — the wall-clock shape of the mid-scan abort.
func TestExecuteContextWallClock(t *testing.T) {
	s := bigStore(300_000)
	v := StoreView{S: s}
	// Warm run: how long does an uncancelled topk take?
	start := time.Now()
	if _, err := ExecuteContext(context.Background(), Query{Op: OpTopK, K: 1000}, v); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skip("store scan too fast on this machine to observe cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err := ExecuteContext(ctx, Query{Op: OpTopK, K: 1000}, v)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > full {
		t.Errorf("cancelled topk took %v, full scan only %v", elapsed, full)
	}
}
