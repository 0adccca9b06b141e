// Tests for the data plane's HTTP/1.1 client: it answers what the
// net/http path it replaced answered, reply for reply; it keeps, reuses
// and drops connections by the rules in dataplane.go; and the daemons
// receive the request they always did.
package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// countingListener counts the connections a server accepts: each is one
// dial by the client.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// rawDaemon serves canned replies over plain TCP: for the i-th request on
// a connection, answer(i) returns the bytes to write and whether to close
// the connection after them. Requests are parsed by net/http; replies are
// written byte for byte, so they can be anything.
func rawDaemon(t *testing.T, answer func(i int) (reply string, hangUp bool)) (url string, ln *countingListener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln = &countingListener{Listener: l}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for i := 0; ; i++ {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					reply, hangUp := answer(i)
					if _, err := io.WriteString(c, reply); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return "http://" + l.Addr().String(), ln
}

// netHTTPQuery is HTTPTransport.Query as it was on net/http: the same
// request through DefaultClient, the same status, encoding and decode
// handling of its reply.
func netHTTPQuery(base string, host types.HostID, q query.Query) (query.Result, error) {
	var body bytes.Buffer
	if err := wire.WriteQueryRequest(&body, &host, &q); err != nil {
		return query.Result{}, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/query", &body)
	if err != nil {
		return query.Result{}, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType+", application/json")
	resp, err := DefaultClient.Do(req)
	if err != nil {
		return query.Result{}, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return query.Result{}, &StatusError{Code: resp.StatusCode, URL: base + "/query", Status: resp.Status, Msg: string(bytes.TrimSpace(msg))}
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
		return query.Result{}, &UnexpectedContentTypeError{URL: base + "/query", ContentType: ct}
	}
	_, res, err := wire.ReadQuery(resp.Body)
	if err != nil {
		return query.Result{}, err
	}
	return *res, nil
}

// topFrame is a small /query reply frame.
func topFrame(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	res := query.Result{Op: query.OpTopK, Top: []query.FlowBytes{{Flow: seedFlow(1, 2), Bytes: 1500, Pkts: 3}, {Flow: seedFlow(1, 5), Bytes: 900, Pkts: 1}}}
	if err := wire.WriteQuery(&b, wire.Meta{RecordsScanned: 40, SegmentsScanned: 2}, &res, false); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// chunk encodes s as HTTP chunks of at most n bytes, each size line
// carrying an extension.
func chunk(s string, n int) string {
	var b strings.Builder
	for len(s) > 0 {
		k := min(n, len(s))
		fmt.Fprintf(&b, "%x;seq=%d\r\n%s\r\n", k, b.Len(), s[:k])
		s = s[k:]
	}
	return b.String()
}

// TestDataPlaneMatchesNetHTTP is the differential table: for each reply a
// daemon (or something posing as one) might send, the data plane's Query
// returns what the net/http path it replaced returned — the same result,
// the same *StatusError fields, the same *UnexpectedContentTypeError — and
// fails where it failed.
func TestDataPlaneMatchesNetHTTP(t *testing.T) {
	frame := topFrame(t)
	const wireCT = "Content-Type: " + wire.ContentType + "\r\n"
	longMsg := strings.Repeat("no such host here; ", 40)
	for _, tc := range []struct {
		name, reply string
		wantErr     bool
	}{
		{name: "content-length", reply: "HTTP/1.1 200 OK\r\n" + wireCT + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(frame)) + frame},
		{name: "chunked-extensions-trailer", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Transfer-Encoding: chunked\r\nTrailer: X-Done\r\n\r\n" + chunk(frame, 7) + "0;last\r\nX-Done: yes\r\n\r\n"},
		{name: "http10", reply: "HTTP/1.0 200 OK\r\n" + wireCT + "\r\n" + frame},
		{name: "connection-close", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Connection: close\r\n" + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(frame)) + frame},
		{name: "404", reply: "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 30\r\n\r\nrpc: host h99 not served here\n", wantErr: true},
		{name: "404-long-body", reply: "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n" + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(longMsg)) + longMsg, wantErr: true},
		{name: "501", reply: "HTTP/1.1 501 Not Implemented\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk("query: op poor_tcp unsupported\n", 9) + "0\r\n\r\n", wantErr: true},
		{name: "504", reply: "HTTP/1.1 504 Gateway Timeout\r\nContent-Length: 26\r\n\r\n  context deadline exceeded", wantErr: true},
		{name: "json-reply", reply: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 3\r\n\r\n{}\n", wantErr: true},
		{name: "truncated-head", reply: "HTTP/1.1 200 OK\r\nContent-Ty", wantErr: true},
		{name: "truncated-chunk", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Transfer-Encoding: chunked\r\n\r\n40\r\n" + frame[:10], wantErr: true},
		{name: "chunk-without-crlf", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Transfer-Encoding: chunked\r\n\r\n" + fmt.Sprintf("a\r\n%s--%x\r\n%s\r\n0\r\n\r\n", frame[:10], len(frame)-10, frame[10:]), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, _ := rawDaemon(t, func(int) (string, bool) { return tc.reply, true })
			q := query.Query{Op: query.OpTopK, K: 2}
			want, wantErr := netHTTPQuery(url, 1, q)
			got, _, err := (&HTTPTransport{URLs: map[types.HostID]string{1: url}}).Query(context.Background(), 1, q)
			if (wantErr != nil) != tc.wantErr {
				t.Fatalf("the net/http path returned %v", wantErr)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, net/http path: %v", err, wantErr)
			}
			if err == nil {
				if canon(t, got) != canon(t, want) {
					t.Fatalf("result %s, net/http path %s", canon(t, got), canon(t, want))
				}
				return
			}
			var se, wse *StatusError
			var ue, wue *UnexpectedContentTypeError
			switch {
			case errors.As(wantErr, &wse):
				if !errors.As(err, &se) || *se != *wse {
					t.Fatalf("err = %#v, net/http path %#v", err, wse)
				}
			case errors.As(wantErr, &wue):
				if !errors.As(err, &ue) || *ue != *wue {
					t.Fatalf("err = %#v, net/http path %#v", err, wue)
				}
			case errors.As(err, &se) || errors.As(err, &ue):
				t.Fatalf("a truncated reply read as an answer: %v", err)
			}
		})
	}
}

// TestDataPlaneReuse: a connection carries every exchange it may and no
// other. A thousand sequential queries to one daemon dial once; a reply
// that says Connection: close, or comes as HTTP/1.0, costs the next call
// a dial; so do a decode error and a reply whose body runs on past the
// frame's end.
func TestDataPlaneReuse(t *testing.T) {
	t.Run("keep-alive", func(t *testing.T) {
		srv := httptest.NewUnstartedServer((&AgentServer{T: SnapshotTarget{Store: seedStore(1, 20)}}).Handler())
		ln := &countingListener{Listener: srv.Listener}
		srv.Listener = ln
		srv.Start()
		defer srv.Close()
		tr := &HTTPTransport{URLs: map[types.HostID]string{1: srv.URL}}
		defer tr.CloseIdleConnections()
		q := query.Query{Op: query.OpTopK, K: 3}
		for i := 0; i < 1000; i++ {
			if _, _, err := tr.Query(context.Background(), 1, q); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		if n := ln.accepts.Load(); n != 1 {
			t.Fatalf("1000 sequential queries dialled %d times, want once", n)
		}
	})

	frame := topFrame(t)
	const wireCT = "Content-Type: " + wire.ContentType + "\r\n"
	cl := fmt.Sprintf("Content-Length: %d\r\n\r\n", len(frame))
	for _, tc := range []struct {
		name, reply string
		wantErr     bool
		dials       int32 // for three calls
	}{
		{name: "reusable", reply: "HTTP/1.1 200 OK\r\n" + wireCT + cl + frame, dials: 1},
		{name: "connection-close", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Connection: close\r\n" + cl + frame, dials: 3},
		{name: "http10-keep-alive", reply: "HTTP/1.0 200 OK\r\n" + wireCT + "Connection: keep-alive\r\n" + cl + frame, dials: 3},
		{name: "decode-error", reply: "HTTP/1.1 200 OK\r\n" + wireCT + "Content-Length: 6\r\n\r\nPDW1\x09\x00", wantErr: true, dials: 3},
		{name: "404-drained", reply: "HTTP/1.1 404 Not Found\r\nContent-Length: 2000\r\n\r\n" + strings.Repeat("x", 2000), wantErr: true, dials: 1},
		// A reply nobody asked for rides behind the one that was: the
		// connection is out of step and must not answer the next call.
		{name: "bytes-after-reply", reply: "HTTP/1.1 200 OK\r\n" + wireCT + cl + frame + "HTTP/1.1 200 OK\r\n" + wireCT + cl + frame, dials: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, ln := rawDaemon(t, func(int) (string, bool) { return tc.reply, false })
			tr := &HTTPTransport{URLs: map[types.HostID]string{1: url}}
			defer tr.CloseIdleConnections()
			for i := 0; i < 3; i++ {
				if _, _, err := tr.Query(context.Background(), 1, query.Query{Op: query.OpTopK, K: 2}); (err != nil) != tc.wantErr {
					t.Fatalf("call %d: err = %v", i, err)
				}
			}
			if n := ln.accepts.Load(); n != tc.dials {
				t.Fatalf("three calls dialled %d times, want %d", n, tc.dials)
			}
		})
	}
}

// idle is how many connections to base the data plane holds idle.
func (p *dataPlane) idle(base string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.daemons[base]; d != nil {
		return len(d.idle)
	}
	return 0
}

// TestDataPlaneCancelMidReply: a context cancelled while the reply is
// arriving fails the call with the context's error at once, never pools
// the connection it cut, and leaves no goroutine behind — the daemon's
// handler sees its client gone and returns.
func TestDataPlaneCancelMidReply(t *testing.T) {
	frame := topFrame(t)
	started := make(chan struct{}, 1)
	handlerDone := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { handlerDone <- struct{}{} }()
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", wire.ContentType)
		io.WriteString(w, frame[:8])
		w.(http.Flusher).Flush()
		started <- struct{}{}
		<-r.Context().Done()
	}))
	defer srv.Close()
	before := runtime.NumGoroutine()
	tr := &HTTPTransport{URLs: map[types.HostID]string{1: srv.URL}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	start := time.Now()
	_, _, err := tr.Query(ctx, 1, query.Query{Op: query.OpTopK, K: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("a cancelled query took %v to return", d)
	}
	if n := tr.dp.idle(srv.URL); n != 0 {
		t.Fatalf("%d connections pooled after a cancelled reply, want 0", n)
	}
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon's handler never saw its client hang up")
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDataPlaneStaleKeepAlive: a pooled connection the daemon closed while
// it sat idle costs one retry on a fresh connection, and the call
// succeeds. A connection that fails before its reply on its first use is
// an error with no retry, and so is a pooled one whose reply broke off
// after its first byte.
func TestDataPlaneStaleKeepAlive(t *testing.T) {
	frame := topFrame(t)
	ok := "HTTP/1.1 200 OK\r\nContent-Type: " + wire.ContentType + fmt.Sprintf("\r\nContent-Length: %d\r\n\r\n", len(frame)) + frame
	q := query.Query{Op: query.OpTopK, K: 2}
	for _, tc := range []struct {
		name    string
		answer  func(i int) (string, bool)
		calls   int
		wantErr bool
		dials   int32
	}{
		// Every connection answers once, then hangs up without saying so.
		{"closed-while-idle", func(int) (string, bool) { return ok, true }, 3, false, 3},
		{"fresh-no-reply", func(int) (string, bool) { return "", true }, 1, true, 1},
		{"reused-cut-mid-reply", func(i int) (string, bool) {
			if i == 0 {
				return ok, false
			}
			return "HTTP/1.1 20", true
		}, 2, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, ln := rawDaemon(t, tc.answer)
			tr := &HTTPTransport{URLs: map[types.HostID]string{1: url}}
			defer tr.CloseIdleConnections()
			var err error
			for i := 0; i < tc.calls; i++ {
				if _, _, err = tr.Query(context.Background(), 1, q); err != nil && i < tc.calls-1 {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("last call: err = %v", err)
			}
			if n := ln.accepts.Load(); n != tc.dials {
				t.Fatalf("%d calls dialled %d times, want %d", tc.calls, n, tc.dials)
			}
		})
	}
}

// TestDataPlaneRequest: the daemon receives what the net/http path sent —
// request line, Content-Type, Accept and body — and a base URL's path
// prefixes the request path.
func TestDataPlaneRequest(t *testing.T) {
	type seen struct {
		method, uri, ct, accept, host string
		body                          []byte
	}
	got := make(chan seen, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.RequestURI, r.Header.Get("Content-Type"), r.Header.Get("Accept"), r.Host, body}
		w.Header().Set("Content-Type", wire.ContentType)
		wire.WriteQuery(w, wire.Meta{}, &query.Result{Op: query.OpCount}, false)
	}))
	defer srv.Close()
	host := types.HostID(4)
	q := query.Query{Op: query.OpCount, Flow: seedFlow(4, 1)}
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTraceID())

	var body bytes.Buffer
	if err := wire.WriteQueryRequest(&body, &host, &q); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/prefix/query", bytes.NewReader(body.Bytes()))
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType+", application/json")
	resp, err := DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	closeBody(resp)
	want := <-got

	tr := &HTTPTransport{URLs: map[types.HostID]string{host: srv.URL + "/prefix"}}
	defer tr.CloseIdleConnections()
	if _, _, err := tr.Query(ctx, host, q); err != nil {
		t.Fatal(err)
	}
	if have := <-got; fmt.Sprint(have) != fmt.Sprint(want) {
		t.Fatalf("the daemon received\n%+v\nthe net/http path sent\n%+v", have, want)
	}
}

// TestDataPlaneRefusesURLs: a base URL the data plane cannot reach as
// plain HTTP is an error naming it, never a silent fallback.
func TestDataPlaneRefusesURLs(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:1", "http://user:pw@127.0.0.1:1", "127.0.0.1:1", "http://127.0.0.1:1/?x=1"} {
		tr := &HTTPTransport{URLs: map[types.HostID]string{1: base, 2: base}}
		_, _, err := tr.Query(context.Background(), 1, query.Query{Op: query.OpTopK, K: 1})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", base)) {
			t.Errorf("Query over %s: err = %v, want one naming the URL", base, err)
		}
		replies, err := tr.QueryMany(context.Background(), []types.HostID{1, 2}, query.Query{Op: query.OpTopK, K: 1}, 0)
		if err != nil || replies[0].Err == nil || !strings.Contains(replies[0].Err.Error(), fmt.Sprintf("%q", base)) {
			t.Errorf("QueryMany over %s: slot err = %v, want one naming the URL", base, replies[0].Err)
		}
	}
}
