// Command pathdumpctl is the operator CLI of the PathDump controller: it
// executes debugging queries against a set of pathdumpd agents over HTTP
// (the paper's on-demand debugging path, Fig. 3).
//
//	# top-5 flows across three agents
//	pathdumpctl -agents 0=http://h0:8400,1=http://h1:8401 topk -k 5
//
//	# flows crossing a link, paths of one flow, conformance sweep
//	pathdumpctl -agents ... flows -link 8-16
//	pathdumpctl -agents ... paths -flow 10.0.0.2:1234-10.2.0.2:80
//	pathdumpctl -agents ... conformance -maxlen 6
//	pathdumpctl -agents ... install -op poor_tcp -threshold 3 -period 200ms
//
//	# capture a live daemon's TIB for offline analysis, then serve it
//	pathdumpctl -agents 3=http://h3:8403 -pull-snapshot host3.tib
//	pathdumpd -host 3 -listen :9403 -tib host3.tib
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pathdump"
	"pathdump/internal/alarms"
	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

func main() {
	agents := flag.String("agents", "", "comma-separated hostID=URL pairs (several hosts may share one URL for batched daemons)")
	arity := flag.Int("k", 4, "fat-tree arity of the ground-truth topology")
	parallel := flag.Int("parallel", 0, "max concurrently outstanding per-host requests (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none): a slow or dead agent aborts the whole fan-out at the deadline instead of pinning it")
	partial := flag.Bool("partial", false, "on a -timeout expiry, print the merged partial result (partial=true in the stats line) instead of failing")
	hedgeAfter := flag.Duration("hedge-after", 0, "issue a duplicate request to an agent that has not answered after this long; first response wins (0 = never hedge)")
	hostTimeout := flag.Duration("host-timeout", 0, "per-agent budget: an agent (including its hedge) slower than this is dropped and the result marked partial (0 = no per-agent budget)")
	retries := flag.Int("retries", 0, "re-issue a request up to this many extra times on real transport errors (connection refused/reset), with jittered backoff; ignored when -hedge-after is set (the hedge race owns the slow/failed path then)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base backoff before the first retry (default 50ms; doubles per attempt, jittered)")
	pullSnapshot := flag.String("pull-snapshot", "", "capture the agent's TIB snapshot (GET /snapshot) into this file and exit; requires exactly one -agents entry. Serve it offline with pathdumpd -tib")
	traceOut := flag.Bool("trace", false, "print the execution's span tree after the stats line: per-host rpc and TIB-scan timings, merge waves, with hedged/retried/dropped requests labelled")
	fanouts := flag.String("fanouts", "", "comma-separated per-level widths for hierarchical (tree) aggregation, e.g. '4,2': agents are grouped under interior aggregation nodes instead of one flat fan-out (empty = flat)")
	ctrlURL := flag.String("controller", "", "controller URL (pathdumpc) for the alarm-plane modes -alarms and -watch")
	listAlarms := flag.Bool("alarms", false, "query the controller's bounded alarm history (GET /alarms) and exit; filter with -reason/-alarm-host/-since/-limit")
	watch := flag.Bool("watch", false, "tail the controller's live alarm feed (GET /alarms/stream) until killed or -watch-for elapses; -since N replays history after entry N first")
	watchFor := flag.Duration("watch-for", 0, "stop -watch after this long and exit 0 (0 = tail forever)")
	sinceID := flag.Int64("since", -1, "alarm entry ID paging/replay cursor: -alarms lists entries after it; -watch replays history after it before going live (-1 = -alarms lists everything, -watch tails live only)")
	reason := flag.String("reason", "", "alarm filter: reason code (e.g. POOR_PERF, PC_FAIL)")
	alarmHost := flag.Int("alarm-host", -1, "alarm filter: host ID (-1 = all hosts)")
	limit := flag.Int("limit", 0, "alarm history limit: keep only the newest N matches (0 = all)")
	flag.Parse()
	args := flag.Args()
	alarmMode := *listAlarms || *watch
	if alarmMode && *ctrlURL == "" {
		fmt.Fprintln(os.Stderr, "pathdumpctl: -alarms/-watch need -controller URL")
		os.Exit(2)
	}
	if !alarmMode && (*agents == "" || (len(args) == 0 && *pullSnapshot == "")) {
		fmt.Fprintln(os.Stderr, "usage: pathdumpctl -agents id=url[,id=url...] [-parallel n] [-timeout d] [-partial] [-hedge-after d] [-host-timeout d] [-retries n] [-pull-snapshot file] {topk|flows|paths|count|conformance|matrix|poor|install|uninstall} [flags]\n       pathdumpctl -controller url {-alarms|-watch} [-reason r] [-alarm-host n] [-since id] [-limit n] [-watch-for d]")
		os.Exit(2)
	}

	if alarmMode {
		runAlarmMode(*ctrlURL, *listAlarms, *watch, *timeout, *watchFor, *sinceID, *reason, *alarmHost, *limit)
		return
	}
	urls, hosts := parseAgents(*agents)
	topo, err := topology.FatTree(*arity)
	if err != nil {
		log.Fatal(err)
	}
	transport := &rpc.HTTPTransport{URLs: urls}
	ctrl := controller.New(topo, transport, nil)
	ctrl.Parallelism = *parallel
	ctrl.PartialOnDeadline = *partial
	ctrl.HedgeAfter = *hedgeAfter
	ctrl.PerHostTimeout = *hostTimeout
	ctrl.RetryAttempts = *retries
	ctrl.RetryBackoff = *retryBackoff
	traceSpans = *traceOut
	execute := func(ctx context.Context, hosts []types.HostID, q query.Query) (query.Result, controller.ExecStats, error) {
		if *fanouts != "" {
			return ctrl.ExecuteTreeContext(ctx, hosts, q, parseFanouts(*fanouts))
		}
		return ctrl.ExecuteContext(ctx, hosts, q)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *pullSnapshot != "" {
		if len(hosts) != 1 {
			log.Fatalf("-pull-snapshot captures one agent's TIB; -agents lists %d", len(hosts))
		}
		f, err := os.Create(*pullSnapshot)
		check(err)
		n, err := transport.PullSnapshot(ctx, hosts[0], f)
		if err != nil {
			os.Remove(*pullSnapshot)
			check(err)
		}
		check(f.Close())
		fmt.Printf("pulled %d snapshot bytes from host %v into %s\n", n, hosts[0], *pullSnapshot)
		return
	}

	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		k         = fs.Int("k", 10, "top-k size")
		link      = fs.String("link", "*-*", "link filter a-b (wildcards: *)")
		flowStr   = fs.String("flow", "", "flow srcIP:port-dstIP:port")
		maxlen    = fs.Int("maxlen", 0, "conformance: max path length")
		avoid     = fs.Int("avoid", -1, "conformance: switch to avoid")
		op        = fs.String("op", "poor_tcp", "install: query op")
		threshold = fs.Int("threshold", 3, "poor-TCP threshold")
		period    = fs.Duration("period", 200*time.Millisecond, "install period")
		id        = fs.Int("id", 0, "uninstall: installation id")
	)
	if err := fs.Parse(rest); err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "topk":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpTopK, K: *k})
		checkExec(stats, err)
		for i, fb := range res.Top {
			fmt.Printf("#%-3d %-44s %12d bytes\n", i+1, fb.Flow, fb.Bytes)
		}
		printStats(stats)
	case "flows":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpFlows, Link: parseLink(*link)})
		checkExec(stats, err)
		for _, fl := range res.Flows {
			fmt.Printf("%-44s via %v\n", fl.ID, fl.Path)
		}
		printStats(stats)
	case "paths":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpPaths, Flow: parseFlow(*flowStr), Link: types.AnyLink})
		checkExec(stats, err)
		for _, p := range res.Paths {
			fmt.Println(p)
		}
		printStats(stats)
	case "count":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpCount, Flow: parseFlow(*flowStr)})
		checkExec(stats, err)
		fmt.Printf("%d bytes, %d packets\n", res.Bytes, res.Pkts)
		printStats(stats)
	case "conformance":
		q := query.Query{Op: query.OpConformance, MaxPathLen: *maxlen}
		if *avoid >= 0 {
			q.Avoid = []types.SwitchID{types.SwitchID(*avoid)}
		}
		res, stats, err := execute(ctx, hosts, q)
		checkExec(stats, err)
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION %-44s via %v\n", v.Flow, v.Path)
		}
		fmt.Printf("%d violations\n", len(res.Violations))
		printStats(stats)
	case "matrix":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpMatrix})
		checkExec(stats, err)
		for _, cell := range res.Matrix {
			fmt.Printf("%v -> %v  %12d bytes\n", cell.SrcToR, cell.DstToR, cell.Bytes)
		}
		printStats(stats)
	case "poor":
		res, stats, err := execute(ctx, hosts, query.Query{Op: query.OpPoorTCP, Threshold: *threshold})
		checkExec(stats, err)
		for _, f := range res.FlowIDs {
			fmt.Println(f)
		}
		fmt.Printf("%d poor flows\n", len(res.FlowIDs))
		printStats(stats)
	case "install":
		ids, err := ctrl.InstallContext(ctx, hosts, query.Query{Op: query.Op(*op), Threshold: *threshold}, pathdump.Time(period.Nanoseconds()))
		check(err)
		for h, installID := range ids {
			fmt.Printf("host %v: id %d\n", h, installID)
		}
	case "uninstall":
		ids := make(map[types.HostID]int, len(hosts))
		for _, h := range hosts {
			ids[h] = *id
		}
		check(ctrl.UninstallContext(ctx, ids))
		fmt.Println("uninstalled")
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// runAlarmMode serves the alarm-plane modes: -alarms (bounded history
// query, -timeout-bounded) and -watch (live tail, bounded by -watch-for
// rather than -timeout — a tail is long-lived by design). Both talk to
// a pathdumpc controller daemon.
func runAlarmMode(ctrlURL string, list, watch bool, timeout, watchFor time.Duration, sinceID int64, reason string, alarmHost, limit int) {
	base := strings.TrimSuffix(ctrlURL, "/")
	f := alarms.Filter{Reason: types.Reason(reason), Limit: limit}
	if sinceID > 0 {
		f.SinceID = uint64(sinceID)
	}
	if alarmHost >= 0 {
		h := types.HostID(alarmHost)
		f.Host = &h
	}
	if list {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		resp, err := rpc.FetchAlarms(ctx, nil, base, f)
		check(err)
		for _, e := range resp.Entries {
			printEntry(e)
		}
		st := resp.Stats
		fmt.Printf("(%d shown; pipeline: %d received, %d admitted, %d suppressed, %d rate-limited, %d evicted, %d subscribers)\n",
			len(resp.Entries), st.Received, st.Admitted, st.Suppressed, st.RateLimited, st.Evicted, st.Subscribers)
		return
	}
	ctx := context.Background()
	if watchFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, watchFor)
		defer cancel()
	}
	replay := sinceID >= 0
	err := rpc.StreamAlarms(ctx, nil, base, f, replay, func(e alarms.Entry) error {
		printEntry(e)
		return nil
	})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		check(err)
	}
}

// printEntry renders one alarm-history entry; the e2e smoke script greps
// these lines.
func printEntry(e alarms.Entry) {
	fmt.Printf("#%-4d %v x%d at %s\n", e.ID, e.Alarm, e.Count, e.LastAt.Format(time.RFC3339))
}

func check(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("query deadline exceeded (-timeout): %v", err)
	}
	log.Fatal(err)
}

// checkExec is check for distributed executions: on failure it reports
// how far the fan-out got before it was cut off.
func checkExec(stats controller.ExecStats, err error) {
	if err == nil {
		return
	}
	if stats.Skipped > 0 {
		log.Printf("fan-out cut short: %d hosts answered, %d skipped", stats.Hosts, stats.Skipped)
	}
	check(err)
}

// traceSpans mirrors the -trace flag: printStats appends the span tree
// when it is set.
var traceSpans bool

// printStats summarises the execution: how many agents answered, how many
// were dropped/skipped, how many requests were hedged, whether the merged
// result is partial, and the modelled §5.2 response time. The e2e smoke
// script asserts on this line. Under -trace the execution's span tree
// follows it.
func printStats(stats controller.ExecStats) {
	fmt.Printf("(%d hosts answered, %d skipped, %d hedged, partial=%v, %d retried, segments %d scanned/%d pruned, modelled response %v)\n",
		stats.Hosts, stats.Skipped, stats.Hedged, stats.Partial, stats.Retried,
		stats.SegmentsScanned, stats.SegmentsPruned, stats.ResponseTime)
	if traceSpans && stats.Trace != nil {
		fmt.Print(stats.Trace.Render())
	}
}

// parseFanouts parses the -fanouts spec: comma-separated positive
// per-level widths, outermost first.
func parseFanouts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			log.Fatalf("bad -fanouts entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out
}

func parseAgents(s string) (map[types.HostID]string, []types.HostID) {
	urls := make(map[types.HostID]string)
	var hosts []types.HostID
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("bad -agents entry %q", pair)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			log.Fatalf("bad host ID %q: %v", id, err)
		}
		h := types.HostID(n)
		urls[h] = strings.TrimSuffix(url, "/")
		hosts = append(hosts, h)
	}
	return urls, hosts
}

func parseLink(s string) types.LinkID {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		log.Fatalf("bad link %q (want a-b)", s)
	}
	return types.LinkID{A: parseSwitch(a), B: parseSwitch(b)}
}

func parseSwitch(s string) types.SwitchID {
	s = strings.TrimPrefix(strings.TrimSpace(s), "s")
	if s == "*" || s == "?" {
		return types.WildcardSwitch
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		log.Fatalf("bad switch %q: %v", s, err)
	}
	return types.SwitchID(n)
}

// parseFlow accepts "srcIP:port-dstIP:port" (TCP assumed).
func parseFlow(s string) types.FlowID {
	src, dst, ok := strings.Cut(s, "-")
	if !ok {
		log.Fatalf("bad flow %q (want srcIP:port-dstIP:port)", s)
	}
	sIP, sPort := parseEndpoint(src)
	dIP, dPort := parseEndpoint(dst)
	return types.FlowID{SrcIP: sIP, SrcPort: sPort, DstIP: dIP, DstPort: dPort, Proto: types.ProtoTCP}
}

func parseEndpoint(s string) (types.IP, uint16) {
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		log.Fatalf("bad endpoint %q", s)
	}
	var a, b, c, d uint32
	if _, err := fmt.Sscanf(host, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		log.Fatalf("bad IP %q: %v", host, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		log.Fatalf("bad port %q: %v", port, err)
	}
	return types.IP(a<<24 | b<<16 | c<<8 | d), uint16(p)
}
