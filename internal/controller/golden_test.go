package controller

import (
	"context"
	"fmt"
	"testing"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// goldenTransport answers every op with a small canned result shaped by
// the host's ID (item counts, record counts and segment telemetry all
// vary across hosts), so the §5.2 numbers of an execution depend on the
// tree shape and the schedule alone. It uses only names that predate the
// executor/model split: the constants in goldenWant were captured at the
// commit before it, and this file passes unmodified on both sides.
type goldenTransport struct{}

func goldenReply(h types.HostID, q query.Query) (query.Result, QueryMeta) {
	n := 1 + int(h)%5
	flow := func(i int) types.FlowID {
		return types.FlowID{SrcIP: types.IP(0x0a000000 | uint32(h)<<8 | uint32(i)), DstIP: 0x0a00ff01, SrcPort: uint16(4000 + i), DstPort: 80, Proto: types.ProtoTCP}
	}
	path := types.Path{types.SwitchID(h % 8), types.SwitchID(16 + h%4), types.SwitchID(8 + h%8)}
	res := query.Result{Op: q.Op}
	for i := 0; i < n; i++ {
		switch q.Op {
		case query.OpFlows:
			res.Flows = append(res.Flows, types.Flow{ID: flow(i), Path: path})
		case query.OpPaths:
			res.Paths = append(res.Paths, append(types.Path{types.SwitchID(i)}, path...))
		case query.OpPoorTCP:
			res.FlowIDs = append(res.FlowIDs, flow(i))
		case query.OpTopK:
			res.Top = append(res.Top, query.FlowBytes{Flow: flow(i), Bytes: uint64(100000 - 1000*i - int(h)), Pkts: uint64(70 - i)})
		case query.OpConformance:
			res.Violations = append(res.Violations, query.Violation{Flow: flow(i), Path: path})
		case query.OpMatrix:
			res.Matrix = append(res.Matrix, query.MatrixCell{SrcToR: types.SwitchID(h % 8), DstToR: types.SwitchID(i), Bytes: uint64(1500 * (i + 1))})
		}
	}
	switch q.Op {
	case query.OpCount:
		res.Bytes, res.Pkts = uint64(123456*(int(h)+1)), uint64(97*(int(h)+1))
	case query.OpDuration:
		res.Duration = types.Time(h+1) * 3 * types.Millisecond
	case query.OpFSD:
		bins := make([]uint64, 12)
		for i := 0; i < n; i++ {
			bins[(int(h)+3*i)%len(bins)] += uint64(1 + i)
		}
		res.Hists = []query.LinkHist{{Link: types.LinkID{A: types.SwitchID(h % 4), B: 16}, BinBytes: q.BinBytes, Bins: bins}}
	}
	return res, QueryMeta{
		RecordsScanned:  20_000 * (1 + int(h)%7),
		SegmentsScanned: int(h) % 4,
		SegmentsPruned:  int(h) % 3,
	}
}

func (goldenTransport) Query(_ context.Context, h types.HostID, q query.Query) (query.Result, QueryMeta, error) {
	res, meta := goldenReply(h, q)
	return res, meta, nil
}

func (goldenTransport) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 0, nil
}
func (goldenTransport) Uninstall(context.Context, types.HostID, int) error { return nil }

// goldenBatchTransport serves the same replies through QueryMany, so the
// leaf fan-out takes the batched path.
type goldenBatchTransport struct{ goldenTransport }

func (goldenBatchTransport) QueryMany(_ context.Context, hosts []types.HostID, q query.Query, _ int) ([]BatchReply, error) {
	out := make([]BatchReply, len(hosts))
	for i, h := range hosts {
		res, meta := goldenReply(h, q)
		out[i] = BatchReply{Host: h, Result: res, Meta: meta}
	}
	return out, nil
}

// goldenStats is {ResponseTime, WireBytes, Hosts, SegmentsScanned,
// SegmentsPruned} of one execution.
type goldenStats [5]int64

// TestGoldenModelEquivalence pins the §5.2 model to the nanosecond and the
// byte: 112 hosts × {direct, [4,2], [7,4,4]} × parallelism {0, 1, 8} ×
// every op but records (whose accounting deliberately changed), through a
// plain and a batching transport, against constants captured before the
// model left the executor.
func TestGoldenModelEquivalence(t *testing.T) {
	topo, _ := topology.FatTree(4)
	hosts := hostRange(112)
	shapes := []struct {
		name    string
		fanouts []int
	}{{"direct", nil}, {"tree4x2", []int{4, 2}}, {"tree7x4x4", []int{7, 4, 4}}}
	ops := []query.Op{query.OpFlows, query.OpPaths, query.OpCount, query.OpDuration, query.OpPoorTCP,
		query.OpFSD, query.OpTopK, query.OpConformance, query.OpMatrix}
	transports := []struct {
		name string
		t    Transport
	}{{"plain", goldenTransport{}}, {"batch", goldenBatchTransport{}}}

	for _, sh := range shapes {
		for _, p := range []int{0, 1, 8} {
			for _, op := range ops {
				key := fmt.Sprintf("%s/p%d/%s", sh.name, p, op)
				want, ok := goldenWant[key]
				for _, tr := range transports {
					ctrl := New(topo, tr.t, nil)
					ctrl.Parallelism = p
					ctrl.Cost.SegmentCheck = 3 * types.Microsecond
					q := query.Query{Op: op, Link: types.AnyLink, K: 40, BinBytes: 10_000}
					var (
						st  ExecStats
						err error
					)
					if sh.fanouts == nil {
						_, st, err = ctrl.ExecuteContext(context.Background(), hosts, q)
					} else {
						_, st, err = ctrl.ExecuteTreeContext(context.Background(), hosts, q, sh.fanouts)
					}
					if err != nil {
						t.Fatalf("%s (%s): %v", key, tr.name, err)
					}
					got := goldenStats{int64(st.ResponseTime), st.WireBytes, int64(st.Hosts), int64(st.SegmentsScanned), int64(st.SegmentsPruned)}
					if !ok || got != want {
						t.Errorf("%s (%s): got %v, want %v", key, tr.name, got, want)
					}
				}
			}
		}
	}
}

// goldenWant holds the expected stats per "shape/parallelism/op".
var goldenWant = map[string]goldenStats{
	"direct/p0/flows":          {60277048, 53489, 112, 168, 111},
	"direct/p0/paths":          {60275640, 24185, 112, 168, 111},
	"direct/p0/count":          {59431576, 22309, 112, 168, 111},
	"direct/p0/duration":       {59431576, 22140, 112, 168, 111},
	"direct/p0/poor_tcp":       {60276736, 46588, 112, 168, 111},
	"direct/p0/fsd":            {60192016, 28224, 112, 168, 111},
	"direct/p0/topk":           {60277160, 56122, 112, 168, 111},
	"direct/p0/conformance":    {60277216, 56059, 112, 168, 111},
	"direct/p0/matrix":         {60276096, 33595, 112, 168, 111},
	"direct/p1/flows":          {2538736912, 53489, 112, 168, 111},
	"direct/p1/paths":          {2538502480, 24185, 112, 168, 111},
	"direct/p1/count":          {2538483472, 22309, 112, 168, 111},
	"direct/p1/duration":       {2538482120, 22140, 112, 168, 111},
	"direct/p1/poor_tcp":       {2538681704, 46588, 112, 168, 111},
	"direct/p1/fsd":            {2538534792, 28224, 112, 168, 111},
	"direct/p1/topk":           {2538757976, 56122, 112, 168, 111},
	"direct/p1/conformance":    {2538757472, 56059, 112, 168, 111},
	"direct/p1/matrix":         {2538577760, 33595, 112, 168, 111},
	"direct/p8/flows":          {357094216, 53489, 112, 168, 111},
	"direct/p8/paths":          {357077320, 24185, 112, 168, 111},
	"direct/p8/count":          {357072336, 22309, 112, 168, 111},
	"direct/p8/duration":       {357072216, 22140, 112, 168, 111},
	"direct/p8/poor_tcp":       {357090272, 46588, 112, 168, 111},
	"direct/p8/fsd":            {357080144, 28224, 112, 168, 111},
	"direct/p8/topk":           {357095672, 56122, 112, 168, 111},
	"direct/p8/conformance":    {357095824, 56059, 112, 168, 111},
	"direct/p8/matrix":         {357082736, 33595, 112, 168, 111},
	"tree4x2/p0/flows":         {62855672, 115134, 112, 168, 111},
	"tree4x2/p0/paths":         {61948816, 28364, 112, 168, 111},
	"tree4x2/p0/count":         {61066792, 22348, 112, 168, 111},
	"tree4x2/p0/duration":      {61066728, 22144, 112, 168, 111},
	"tree4x2/p0/poor_tcp":      {62832736, 93556, 112, 168, 111},
	"tree4x2/p0/fsd":           {62127648, 30924, 112, 168, 111},
	"tree4x2/p0/topk":          {62132888, 103755, 112, 168, 111},
	"tree4x2/p0/conformance":   {62858032, 118940, 112, 168, 111},
	"tree4x2/p0/matrix":        {61963976, 47500, 112, 168, 111},
	"tree4x2/p1/flows":         {2441575672, 115134, 112, 168, 111},
	"tree4x2/p1/paths":         {2440529512, 28364, 112, 168, 111},
	"tree4x2/p1/count":         {2439793384, 22348, 112, 168, 111},
	"tree4x2/p1/duration":      {2439791752, 22144, 112, 168, 111},
	"tree4x2/p1/poor_tcp":      {2441403048, 93556, 112, 168, 111},
	"tree4x2/p1/fsd":           {2440653992, 30924, 112, 168, 111},
	"tree4x2/p1/topk":          {2441288640, 103755, 112, 168, 111},
	"tree4x2/p1/conformance":   {2441606120, 118940, 112, 168, 111},
	"tree4x2/p1/matrix":        {2440682600, 47500, 112, 168, 111},
	"tree4x2/p8/flows":         {76300320, 115134, 112, 168, 111},
	"tree4x2/p8/paths":         {75605072, 28364, 112, 168, 111},
	"tree4x2/p8/count":         {75046016, 22348, 112, 168, 111},
	"tree4x2/p8/duration":      {75045920, 22144, 112, 168, 111},
	"tree4x2/p8/poor_tcp":      {76276304, 93556, 112, 168, 111},
	"tree4x2/p8/fsd":           {75699680, 30924, 112, 168, 111},
	"tree4x2/p8/topk":          {75766176, 103755, 112, 168, 111},
	"tree4x2/p8/conformance":   {76302912, 118940, 112, 168, 111},
	"tree4x2/p8/matrix":        {75623304, 47500, 112, 168, 111},
	"tree7x4x4/p0/flows":       {62553448, 107703, 112, 168, 111},
	"tree7x4x4/p0/paths":       {62114688, 29451, 112, 168, 111},
	"tree7x4x4/p0/count":       {61058776, 22371, 112, 168, 111},
	"tree7x4x4/p0/duration":    {61058728, 22143, 112, 168, 111},
	"tree7x4x4/p0/poor_tcp":    {62542432, 87856, 112, 168, 111},
	"tree7x4x4/p0/fsd":         {62207648, 35574, 112, 168, 111},
	"tree7x4x4/p0/topk":        {62340472, 109532, 112, 168, 111},
	"tree7x4x4/p0/conformance": {62554800, 111359, 112, 168, 111},
	"tree7x4x4/p0/matrix":      {62124768, 50911, 112, 168, 111},
	"tree7x4x4/p1/flows":       {2017086232, 107703, 112, 168, 111},
	"tree7x4x4/p1/paths":       {2016414776, 29451, 112, 168, 111},
	"tree7x4x4/p1/count":       {2015666984, 22371, 112, 168, 111},
	"tree7x4x4/p1/duration":    {2015665208, 22143, 112, 168, 111},
	"tree7x4x4/p1/poor_tcp":    {2016930048, 87856, 112, 168, 111},
	"tree7x4x4/p1/fsd":         {2016426928, 35574, 112, 168, 111},
	"tree7x4x4/p1/topk":        {2017071912, 109532, 112, 168, 111},
	"tree7x4x4/p1/conformance": {2017114696, 111359, 112, 168, 111},
	"tree7x4x4/p1/matrix":      {2016583120, 50911, 112, 168, 111},
	"tree7x4x4/p8/flows":       {62553448, 107703, 112, 168, 111},
	"tree7x4x4/p8/paths":       {62114688, 29451, 112, 168, 111},
	"tree7x4x4/p8/count":       {61058776, 22371, 112, 168, 111},
	"tree7x4x4/p8/duration":    {61058728, 22143, 112, 168, 111},
	"tree7x4x4/p8/poor_tcp":    {62542432, 87856, 112, 168, 111},
	"tree7x4x4/p8/fsd":         {62207648, 35574, 112, 168, 111},
	"tree7x4x4/p8/topk":        {62340472, 109532, 112, 168, 111},
	"tree7x4x4/p8/conformance": {62554800, 111359, 112, 168, 111},
	"tree7x4x4/p8/matrix":      {62124768, 50911, 112, 168, 111},
}
