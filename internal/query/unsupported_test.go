package query

import (
	"context"
	"errors"
	"testing"

	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// monitorView is a store with a TCP monitor behind it: PoorTCPFlows
// answers with a nil error, so every op is served.
type monitorView struct{ StoreView }

func (monitorView) PoorTCPFlows(int) ([]types.FlowID, error) { return nil, nil }

// TestStoreViewPoorTCPUnsupported is the regression test for the old
// silent-nil behaviour: a bare TIB store has no TCP monitor, so asking it
// for poor TCP flows must surface ErrUnsupported rather than masquerading
// as "no poor flows". A view whose monitor answers serves every op.
func TestStoreViewPoorTCPUnsupported(t *testing.T) {
	s := tib.NewStore()
	s.Add(types.Record{
		Flow:  types.FlowID{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: 6},
		Path:  types.Path{0, 8, 16},
		STime: 0, ETime: 10, Bytes: 500, Pkts: 5,
	})
	served := []Op{OpFlows, OpPaths, OpCount, OpDuration, OpFSD, OpTopK, OpConformance, OpMatrix, OpRecords}
	for _, tc := range []struct {
		name    string
		v       View
		poorErr error // what poor_tcp answers
	}{
		{name: "bare-store", v: StoreView{S: s}, poorErr: ErrUnsupported},
		{name: "with-monitor", v: monitorView{StoreView{S: s}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			_, err := ExecuteContext(ctx, Query{Op: OpPoorTCP, Threshold: 3}, tc.v)
			if !errors.Is(err, tc.poorErr) {
				t.Fatalf("ExecuteContext(OpPoorTCP) err = %v, want %v", err, tc.poorErr)
			}
			// Every op the store can serve still executes cleanly.
			for _, op := range served {
				res, err := ExecuteContext(ctx, Query{Op: op, Link: types.AnyLink}, tc.v)
				if err != nil {
					t.Errorf("ExecuteContext(%s) err = %v", op, err)
				}
				if res.Op != op {
					t.Errorf("ExecuteContext(%s) result op = %s", op, res.Op)
				}
			}
		})
	}
}
