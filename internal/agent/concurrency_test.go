package agent

import (
	"context"
	"sync"
	"testing"

	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/types"
)

// TestAgentConcurrentIngestAndQuery hammers one agent with concurrent TIB
// ingest (Store.Add, the datapath export path) and full query execution
// (ExecuteContext, the HTTP-served host API) — the overlap the sharded
// TIB exists for. Run under -race this is the per-host half of the
// race-proving suite; the assertions check no record is lost or
// double-counted.
func TestAgentConcurrentIngestAndQuery(t *testing.T) {
	r := newRig(t, netsim.Config{Seed: 42}, Config{})
	host := r.sim.Topo.Hosts()[0]
	a := r.agents[host.ID]

	const (
		writers   = 4
		perWriter = 1500
		readers   = 4
	)
	record := func(w, i int) types.Record {
		return types.Record{
			Flow: types.FlowID{
				SrcIP: types.IP(w<<20 | i), DstIP: host.IP,
				SrcPort: uint16(i), DstPort: 80, Proto: types.ProtoTCP,
			},
			Path:  types.Path{types.SwitchID(i % 8), types.SwitchID(8 + i%8), types.SwitchID(16 + i%4)},
			STime: types.Time(i), ETime: types.Time(i + 5),
			Bytes: 1000, Pkts: 1,
		}
	}

	var writeGroup, readGroup sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		readGroup.Add(1)
		go func(g int) {
			defer readGroup.Done()
			ops := []query.Query{
				{Op: query.OpTopK, K: 50},
				{Op: query.OpFlows, Link: types.AnyLink},
				{Op: query.OpMatrix},
				{Op: query.OpFlows, Link: types.LinkID{A: types.SwitchID(g), B: types.SwitchID(8 + g)}},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _ := a.ExecuteContext(context.Background(), ops[i%len(ops)])
				_ = res
				_ = a.TIBSize()
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		writeGroup.Add(1)
		go func(w int) {
			defer writeGroup.Done()
			for i := 0; i < perWriter; i++ {
				a.Store.Add(record(w, i))
			}
		}(w)
	}
	writeGroup.Wait()
	close(stop)
	readGroup.Wait()

	if got := a.Store.Len(); got != writers*perWriter {
		t.Fatalf("TIB holds %d records, want %d", got, writers*perWriter)
	}
	res, _ := a.ExecuteContext(context.Background(), query.Query{Op: query.OpCount, Flow: record(2, 77).Flow})
	if res.Bytes != 1000 || res.Pkts != 1 {
		t.Fatalf("record lost under concurrency: count = %d/%d", res.Bytes, res.Pkts)
	}
	// A full post-hoc scan sees every record exactly once.
	n := 0
	a.Store.Scan(nil, types.AnyLink, types.AllTime, func(*types.Record) { n++ })
	if n != writers*perWriter {
		t.Fatalf("scan visited %d records, want %d", n, writers*perWriter)
	}
}
