package bench

import (
	"net"
	"net/http"

	"pathdump/internal/agent"
	"pathdump/internal/cherrypick"
	"pathdump/internal/netsim"
	"pathdump/internal/rpc"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// fabric is a fat tree with PathDump agents on some of its hosts, on a
// quiescent simulator: the harness hands pre-tagged packets straight to
// Agent.Receive (as experiments.DatapathBench does) and moves the
// virtual clock itself.
type fabric struct {
	topo   *topology.Topology
	scheme cherrypick.Scheme
	sim    *netsim.Sim
	router *topology.Router
	hosts  []types.HostID // the hosts that run an agent
	agents []*agent.Agent // agents[i] serves hosts[i]
	routes [][]route      // routes[i]: the structural sources of agents[i]
}

// route is one source host of an agent with every equal-cost path from
// it, each pre-tagged the way the fabric's switches would tag it.
type route struct {
	src   types.IP
	paths []types.Path
	hdrs  []cherrypick.Header
}

// srcsPerAgent is how many structural source hosts send to each agent.
const srcsPerAgent = 8

// newFabric builds a k-ary fat tree with an agent on each listed host.
// sink, when non-nil, is called once the simulator exists and returns
// where the agents raise their alarms.
func newFabric(k int, hosts []types.HostID, sink func(*fabric) agent.AlarmSink, cfgFor func(i int) agent.Config) (*fabric, error) {
	topo, err := topology.FatTree(k)
	if err != nil {
		return nil, err
	}
	scheme, err := cherrypick.New(topo)
	if err != nil {
		return nil, err
	}
	f := &fabric{
		topo:   topo,
		scheme: scheme,
		sim:    netsim.New(topo, scheme, netsim.Config{Seed: 1}),
		router: topology.NewRouter(topo),
		hosts:  hosts,
	}
	var alarmSink agent.AlarmSink
	if sink != nil {
		alarmSink = sink(f)
	}
	all := topo.Hosts()
	for i, id := range hosts {
		h := topo.Host(id)
		f.agents = append(f.agents, agent.New(f.sim, h, nil, alarmSink, cfgFor(i)))
		// Sources are spread evenly over the other hosts, so an agent
		// hears from its own rack, its own pod and remote pods alike.
		var rs []route
		for j := 0; j < srcsPerAgent; j++ {
			src := all[(int(id)+1+j*(len(all)-1)/srcsPerAgent)%len(all)]
			r := route{src: src.IP, paths: f.router.EqualCostPaths(src.IP, h.IP)}
			for _, p := range r.paths {
				r.hdrs = append(r.hdrs, cherrypick.ApplyPath(scheme, p, h.IP))
			}
			rs = append(rs, r)
		}
		f.routes = append(f.routes, rs)
	}
	return f, nil
}

// firstHosts returns host IDs 0..n-1.
func firstHosts(n int) []types.HostID {
	out := make([]types.HostID, n)
	for i := range out {
		out[i] = types.HostID(i)
	}
	return out
}

// daemon is one HTTP server on an ephemeral loopback port.
type daemon struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close drops the listener and every connection, and waits for the
// accept loop to exit.
func (d *daemon) close() {
	d.srv.Close()
	<-d.done
}

// newClient returns an HTTP client tuned like rpc.DefaultClient, which
// pathdumpctl uses, on a transport of its own so teardown can close its
// idle connections.
func newClient() *http.Client {
	return &http.Client{Transport: rpc.DefaultTransport.Clone()}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}
