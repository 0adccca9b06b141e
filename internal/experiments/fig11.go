package experiments

import (
	"context"
	"math/rand"

	"pathdump"
	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
	"pathdump/internal/workload"
)

// The §5.2 query-performance experiments run against TIBs of 240 000 flow
// entries per host — roughly one hour of flows at a server (§5.1). The
// fabric is irrelevant there (no packets flow); what matters is query
// execution over realistically sized TIBs, result serialisation, and the
// aggregation strategy. synthTIB builds such a TIB; synthTransport serves
// it for a configurable number of logical hosts. All hosts share one
// store: per-host results and the cost model see identical record counts,
// which is exactly the experiment's controlled variable.

// synthTIB populates a store with n records over the given topology.
func synthTIB(t *topology.Topology, n int, seed int64) *tib.Store {
	rng := rand.New(rand.NewSource(seed))
	r := topology.NewRouter(t)
	dist := workload.WebSearch()
	hosts := t.Hosts()
	s := tib.NewStore()
	for i := 0; i < n; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src.ID == dst.ID {
			continue
		}
		paths := r.EqualCostPaths(src.IP, dst.IP)
		p := paths[rng.Intn(len(paths))]
		bytes := uint64(dist.Sample(rng))
		st := types.Time(rng.Int63n(int64(3600 * types.Second)))
		s.Add(types.Record{
			Flow: types.FlowID{
				SrcIP: src.IP, DstIP: dst.IP,
				SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: types.ProtoTCP,
			},
			Path:  p,
			STime: st,
			ETime: st + types.Time(rng.Int63n(int64(5*types.Second))),
			Bytes: bytes,
			Pkts:  bytes/1460 + 1,
		})
	}
	return s
}

// synthTransport serves one shared synthetic TIB for any host ID.
type synthTransport struct {
	view    query.StoreView
	records int
}

func (t synthTransport) Query(ctx context.Context, host types.HostID, q query.Query) (query.Result, controller.QueryMeta, error) {
	res, err := query.ExecuteContext(ctx, q, t.view)
	return res, controller.QueryMeta{RecordsScanned: t.records}, err
}

func (t synthTransport) Install(context.Context, types.HostID, query.Query, types.Time) (int, error) {
	return 0, nil
}
func (t synthTransport) Uninstall(context.Context, types.HostID, int) error { return nil }

// ScaleConfig parameterises the Fig. 11/12 host-count sweeps.
type ScaleConfig struct {
	Records int   // TIB entries per host (default 240 000, §5.1)
	K       int   // top-k size for Fig. 12 (default 10 000)
	Hosts   []int // default {28, 56, 84, 112}
	Seed    int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Records == 0 {
		c.Records = 240_000
	}
	if c.K == 0 {
		c.K = 10_000
	}
	if len(c.Hosts) == 0 {
		c.Hosts = []int{28, 56, 84, 112}
	}
	return c
}

// ScalePoint is one host-count measurement.
type ScalePoint struct {
	Hosts  int
	Direct pathdump.ExecStats
	Tree   pathdump.ExecStats
}

// ScaleResult reproduces Figure 11 (flow-size-distribution query) or
// Figure 12 (top-k query): response time and traffic, direct vs
// multi-level, as the number of end-hosts grows.
type ScaleResult struct {
	Query  query.Query
	Points []ScalePoint
}

// Fig11 sweeps the flow-size-distribution query.
func Fig11(cfg ScaleConfig) *ScaleResult {
	cfg = cfg.withDefaults()
	topo, err := topology.FatTree(4)
	if err != nil {
		panic(err)
	}
	q := query.Query{
		Op: query.OpFSD,
		Links: []types.LinkID{
			{A: topo.AggID(0, 0), B: topo.CoreID(0)},
			{A: topo.AggID(0, 0), B: topo.CoreID(1)},
		},
		BinBytes: 10_000,
	}
	return scaleSweep(topo, q, cfg)
}

// Fig12 sweeps the top-k query.
func Fig12(cfg ScaleConfig) *ScaleResult {
	cfg = cfg.withDefaults()
	topo, err := topology.FatTree(4)
	if err != nil {
		panic(err)
	}
	q := query.Query{Op: query.OpTopK, K: cfg.K}
	return scaleSweep(topo, q, cfg)
}

func scaleSweep(topo *topology.Topology, q query.Query, cfg ScaleConfig) *ScaleResult {
	store := synthTIB(topo, cfg.Records, cfg.Seed+13)
	ctrl := controller.New(topo, synthTransport{
		view:    query.StoreView{S: store},
		records: cfg.Records,
	}, nil)

	res := &ScaleResult{Query: q}
	for _, n := range cfg.Hosts {
		hosts := make([]types.HostID, n)
		for i := range hosts {
			hosts[i] = types.HostID(i)
		}
		_, direct, err := ctrl.ExecuteContext(context.Background(), hosts, q)
		if err != nil {
			panic(err)
		}
		_, tree, err := ctrl.ExecuteTreeContext(context.Background(), hosts, q, []int{7, 4, 4})
		if err != nil {
			panic(err)
		}
		res.Points = append(res.Points, ScalePoint{Hosts: n, Direct: direct, Tree: tree})
	}
	return res
}
