// The data plane's client. HTTPTransport's two read-only POSTs — /query
// and /batchquery, the round trips of every fan-out — ride this minimal
// keep-alive HTTP/1.1 client instead of net/http, whose request, header
// map, connection and goroutine machinery cost about 65 allocations per
// round trip and carried nothing these exchanges use. The daemons see the
// request net/http would send (request line, Host, Content-Type, Accept,
// Content-Length and the PDW1 frame; no User-Agent or Accept-Encoding),
// and their servers are unchanged. The control plane — install,
// uninstall, snapshots, alarms — stays on net/http through
// HTTPTransport.Client.
//
// A connection holds its socket, a 4 KiB read buffer and a reusable
// request buffer, and no goroutine. Idle connections are kept LIFO per
// daemon base URL, at most maxIdlePerDaemon of them; one idle for longer
// than idleTimeout is closed, not reused. A connection goes back to the
// pool only when its reply's body ended where its framing said, the reply
// was HTTP/1.1 without "Connection: close", and the caller decoded it
// without error. Base URLs must be plain http://host[:port][/path];
// proxy variables are not honoured.
package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"pathdump/internal/wire"
)

const (
	// maxIdlePerDaemon and idleTimeout are DefaultTransport's
	// MaxIdleConnsPerHost and IdleConnTimeout.
	maxIdlePerDaemon = 64
	idleTimeout      = 90 * time.Second
	// headTimeout is DefaultTransport's ResponseHeaderTimeout: a straggler
	// daemon may stall a full minute before its first byte.
	headTimeout = 2 * time.Minute
	// maxHeadBytes bounds a reply's status line and headers, plus any
	// chunked trailer.
	maxHeadBytes = 1 << 20
	// maxDrainBytes is how much of an unread body is read past to keep the
	// connection, as closeBody does on the control plane.
	maxDrainBytes = 1 << 20
	// maxChunkLine is net/http's limit on a chunk-size line.
	maxChunkLine = 4096
)

// dialer is DefaultTransport's dialer.
var dialer = &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}

// aLongTimeAgo is the deadline that fails a blocked read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// errUnsupportedReply marks a reply that net/http would take but the data
// plane refuses, because no daemon sends one: an informational (1xx)
// status, a version other than HTTP/1.0 or 1.1, a status code that is not
// three digits, a folded header line, a head line longer than the
// connection's 4 KiB buffer, or a head past maxHeadBytes.
var errUnsupportedReply = errors.New("rpc: unsupported HTTP reply")

// dataPlane is an HTTPTransport's pool of data-plane connections. The zero
// value is ready to use.
type dataPlane struct {
	mu      sync.Mutex
	daemons map[string]*daemonConns
}

// daemonConns is one daemon base URL, parsed once, and its idle
// connections (guarded by dataPlane.mu).
type daemonConns struct {
	url    string // the base URL as configured, for error messages
	host   string // the URL's host[:port], sent as Host
	addr   string // host:port to dial
	prefix string // the URL's path, ahead of every request path
	idle   []*dpConn
}

// dpConn is one keep-alive connection to a daemon; its reply reads from
// the connection's buffered reader.
type dpConn struct {
	nc        net.Conn
	req       []byte // the request being written
	idleSince time.Time
	reply
	kill func() // c.cancel, bound once for context.AfterFunc

	// mu orders cancel against clearing the head deadline once the head is
	// in: the clear must never overwrite the kill.
	mu     sync.Mutex
	killed bool
}

// roundTrip POSTs body, a PDW1 request frame, to base+path and hands a 200
// wire reply to read, positioned at its body. A non-200 reply is a
// *StatusError and a reply in any other encoding an
// *UnexpectedContentTypeError, both naming base+path; read's error comes
// back as it is. When ctx ends first the error is ctx.Err(). A reused
// connection that fails before the first byte of its reply — a keep-alive
// the daemon closed while it sat idle — is retried once on a freshly
// dialled one, which both POSTs, being read-only, allow; a fresh
// connection is never retried.
func (p *dataPlane) roundTrip(ctx context.Context, base, path string, body []byte, read func(*reply) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d, err := p.daemon(base)
	if err != nil {
		return err
	}
	for fresh := false; ; fresh = true {
		c, reused, err := p.get(ctx, d, fresh)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return d.errorf(path, err)
		}
		answered, err := p.exchange(ctx, d, c, path, body, read)
		if err != nil && reused && !answered && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		return err
	}
}

// exchange runs one request and reply on c, then pools c or closes it.
// answered reports whether any byte of a reply arrived.
func (p *dataPlane) exchange(ctx context.Context, d *daemonConns, c *dpConn, path string, body []byte, read func(*reply) error) (answered bool, err error) {
	// The head deadline goes on before the context is armed: set after, it
	// could overwrite the kill.
	c.killed = false
	c.nc.SetReadDeadline(time.Now().Add(headTimeout))
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.kill)
	}
	answered, err = c.do(d, path, body, read)
	fired := stop != nil && !stop()
	if fired && err != nil {
		err = ctx.Err()
	}
	if !fired && (err == nil || isReplyError(err)) && c.done && c.keep && c.br.Buffered() == 0 {
		p.put(d, c)
	} else {
		c.nc.Close()
	}
	return answered, err
}

// do writes the request and reads the reply: its head here, its body
// through read, and what read left of it past, so the connection can carry
// the next exchange.
func (c *dpConn) do(d *daemonConns, path string, body []byte, read func(*reply) error) (answered bool, err error) {
	c.req = appendRequest(c.req[:0], d, path, body)
	if _, err := c.nc.Write(c.req); err != nil {
		return false, d.errorf(path, err)
	}
	if _, err := c.br.Peek(1); err != nil {
		return false, d.errorf(path, err)
	}
	if err := c.readHead(c.br); err != nil {
		return true, d.errorf(path, err)
	}
	// The head is in. Like net/http's, the ceiling covers the wait for the
	// head, not a long streamed body.
	c.mu.Lock()
	if !c.killed {
		c.nc.SetReadDeadline(time.Time{})
	}
	c.mu.Unlock()
	switch {
	case c.code != 200:
		msg, _ := io.ReadAll(io.LimitReader(&c.reply, 512))
		c.skip(maxDrainBytes)
		return true, &StatusError{Code: c.code, URL: d.url + path, Status: string(c.status), Msg: string(bytes.TrimSpace(msg))}
	case !isWire(c.ctype):
		c.skip(maxDrainBytes)
		return true, &UnexpectedContentTypeError{URL: d.url + path, ContentType: string(c.ctype)}
	}
	if err := read(&c.reply); err != nil {
		return true, err
	}
	c.skip(maxDrainBytes)
	return true, nil
}

// cancel aborts the round trip in flight on c: a deadline in the past fails
// its blocked write or read at once. It runs on the context's AfterFunc
// goroutine.
func (c *dpConn) cancel() {
	c.mu.Lock()
	c.killed = true
	c.nc.SetDeadline(aLongTimeAgo)
	c.mu.Unlock()
}

// appendRequest appends the request for path to b.
func appendRequest(b []byte, d *daemonConns, path string, body []byte) []byte {
	b = append(b, "POST "...)
	b = append(b, d.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, d.host...)
	b = append(b, "\r\nContent-Type: "+wire.ContentType+"\r\nAccept: "+wire.ContentType+", application/json\r\n"...)
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// daemon returns base's entry, parsing the URL the first time.
func (p *dataPlane) daemon(base string) (*daemonConns, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.daemons[base]; d != nil {
		return d, nil
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("rpc: daemon URL %q: %w", base, err)
	}
	if u.Scheme != "http" || u.Host == "" || u.Opaque != "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("rpc: daemon URL %q: queries go to plain http://host[:port][/path] URLs only", base)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	d := &daemonConns{url: base, host: u.Host, addr: addr, prefix: u.EscapedPath()}
	if p.daemons == nil {
		p.daemons = make(map[string]*daemonConns)
	}
	p.daemons[base] = d
	return d, nil
}

// errorf names the request a connection-level failure belongs to.
func (d *daemonConns) errorf(path string, err error) error {
	return fmt.Errorf("rpc: POST %s%s: %w", d.url, path, err)
}

// get returns the newest idle connection to d, or dials one when there is
// none or fresh is set. reused reports a pooled connection.
func (p *dataPlane) get(ctx context.Context, d *daemonConns, fresh bool) (c *dpConn, reused bool, err error) {
	if !fresh {
		var stale []*dpConn
		p.mu.Lock()
		if n := len(d.idle); n > 0 {
			c = d.idle[n-1]
			d.idle[n-1] = nil
			d.idle = d.idle[:n-1]
			if time.Since(c.idleSince) > idleTimeout {
				// LIFO: every connection under the newest is older still.
				stale = append(d.idle, c)
				d.idle, c = nil, nil
			}
		}
		p.mu.Unlock()
		for _, s := range stale {
			s.nc.Close()
		}
		if c != nil {
			return c, true, nil
		}
	}
	nc, err := dialer.DialContext(ctx, "tcp", d.addr)
	if err != nil {
		return nil, false, err
	}
	c = &dpConn{nc: nc}
	c.br = bufio.NewReaderSize(nc, 4<<10)
	c.kill = c.cancel
	return c, false, nil
}

// put pools c as d's newest idle connection, or closes it when d has
// maxIdlePerDaemon already.
func (p *dataPlane) put(d *daemonConns, c *dpConn) {
	c.idleSince = time.Now()
	p.mu.Lock()
	if len(d.idle) < maxIdlePerDaemon {
		d.idle = append(d.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
}

// closeIdle closes every pooled connection.
func (p *dataPlane) closeIdle() {
	p.mu.Lock()
	var idle []*dpConn
	for _, d := range p.daemons {
		idle = append(idle, d.idle...)
		d.idle = nil
	}
	p.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// isReplyError reports the errors a daemon's well-framed answer makes;
// the connection that carried one stays usable.
func isReplyError(err error) bool {
	switch err.(type) {
	case *StatusError, *UnexpectedContentTypeError:
		return true
	}
	return false
}

// isWire is wire.IsWire on the reply's Content-Type bytes.
func isWire(ct []byte) bool {
	return len(ct) >= len(wire.ContentType) && string(ct[:len(wire.ContentType)]) == wire.ContentType
}

// reply is one HTTP/1.1 reply as the data plane reads it: the status, the
// four headers it acts on — Content-Length, Transfer-Encoding, Connection
// and Content-Type — and the body, read through the reply itself (it is
// the body's io.Reader). Nothing is kept in a map: the kept
// values live in buffers the connection's next reply reuses.
type reply struct {
	br     *bufio.Reader
	code   int
	status []byte // "404 Not Found"
	ctype  []byte // the first Content-Type
	headN  int    // head and trailer bytes read, bounded by maxHeadBytes

	keep    bool  // the framing and Connection allow a next exchange
	chunked bool  // the body is chunked
	n       int64 // body bytes left in the Content-Length body or the current chunk; -1 = to EOF
	crlf    bool  // a chunk's data is done: its CRLF comes next
	done    bool  // the body ended where its framing said
	err     error // sticky; io.EOF once done
}

// readHead reads a reply's status line and headers from br and frames its
// body, by net/http's rules (ReadResponse, readTransfer) for every reply
// net/http takes but those errUnsupportedReply names.
func (r *reply) readHead(br *bufio.Reader) error {
	*r = reply{br: br, status: r.status[:0], ctype: r.ctype[:0]}
	line, err := r.line()
	if err != nil {
		return err
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return fmt.Errorf("rpc: malformed HTTP status line %q", line)
	}
	var http10 bool
	switch string(line[:sp]) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		http10 = true
	default:
		return fmt.Errorf("%w: version %q", errUnsupportedReply, line[:sp])
	}
	status := bytes.TrimLeft(line[sp+1:], " ")
	code := cutByte(status, ' ')
	n, ok := parseDecimal(code)
	if len(code) != 3 || !ok {
		return fmt.Errorf("%w: status code %q", errUnsupportedReply, code)
	}
	if r.code = int(n); r.code < 200 {
		return fmt.Errorf("%w: status %d", errUnsupportedReply, r.code)
	}
	r.status = append(r.status, status...)

	var cl, clDigits int64 = -1, 0
	var te int
	var chunked, closing, haveCT bool
	for {
		line, err := r.line()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return fmt.Errorf("%w: folded header line", errUnsupportedReply)
		}
		// textproto trims the line — a stray leading CR included — before
		// it cuts the name at the first colon.
		line = bytes.Trim(line, asciiSpace)
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("rpc: malformed HTTP header line %q", line)
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], asciiSpace)
		switch {
		case equalFold(name, "Content-Length"):
			// Repeats must spell the same number, as net/http requires.
			n, ok := parseDecimal(val)
			if !ok || (cl >= 0 && (n != cl || int64(len(val)) != clDigits)) {
				return fmt.Errorf("rpc: bad Content-Length %q", val)
			}
			cl, clDigits = n, int64(len(val))
		case equalFold(name, "Transfer-Encoding"):
			te++
			chunked = equalFold(val, "chunked")
		case equalFold(name, "Connection"):
			closing = closing || hasToken(val, "close")
		case equalFold(name, "Content-Type"):
			if !haveCT {
				r.ctype, haveCT = append(r.ctype, val...), true
			}
		}
	}
	// net/http ignores Transfer-Encoding on HTTP/1.0 and takes exactly one
	// "chunked" on HTTP/1.1.
	if http10 {
		te, chunked = 0, false
	}
	if te > 1 || (te == 1 && !chunked) {
		return errors.New("rpc: unsupported Transfer-Encoding")
	}
	switch {
	case r.code == 204 || r.code == 304:
		r.n = 0
	case chunked:
		r.chunked = true
	case cl >= 0:
		r.n = cl
	default:
		r.n = -1
	}
	r.keep = !http10 && !closing && r.n >= 0
	return nil
}

// line reads one line of the head or trailer without its "\n" or "\r\n".
// The slice is valid until the next read.
func (r *reply) line() ([]byte, error) {
	b, err := r.br.ReadSlice('\n')
	if r.headN += len(b); r.headN > maxHeadBytes {
		return nil, fmt.Errorf("%w: head past %d bytes", errUnsupportedReply, maxHeadBytes)
	}
	switch err {
	case nil:
	case bufio.ErrBufferFull:
		return nil, fmt.Errorf("%w: head line past %d bytes", errUnsupportedReply, r.br.Size())
	case io.EOF:
		return nil, io.ErrUnexpectedEOF
	default:
		return nil, err
	}
	b = b[:len(b)-1]
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b, nil
}

// Read implements io.Reader over the body.
func (r *reply) Read(p []byte) (int, error) {
	for r.err == nil {
		if r.n == 0 {
			r.advance()
			continue
		}
		if len(p) == 0 {
			return 0, nil
		}
		if r.n > 0 && int64(len(p)) > r.n {
			p = p[:r.n]
		}
		n, err := r.br.Read(p)
		if r.n > 0 {
			r.n -= int64(n)
			r.crlf = r.n == 0 && r.chunked
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
		} else if err == io.EOF {
			r.done = true
		}
		if err != nil {
			r.err = err
		}
		if n > 0 {
			return n, nil
		}
	}
	return 0, r.err
}

// skip reads past the rest of the body, up to limit bytes of data, so the
// connection can carry the next exchange. A body that runs to EOF is left
// alone: its connection cannot be reused anyway.
func (r *reply) skip(limit int64) {
	for r.err == nil && r.n >= 0 && (r.n == 0 || limit > 0) {
		if r.n == 0 {
			r.advance()
			continue
		}
		n, err := r.br.Discard(int(min(r.n, limit)))
		r.n -= int64(n)
		limit -= int64(n)
		r.crlf = r.n == 0 && r.chunked
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			r.err = err
		}
	}
}

// advance moves on from a spent Content-Length body or chunk (r.n == 0):
// it ends the body, or checks the chunk's CRLF and reads the next chunk's
// size — and after the last chunk its trailer, to the blank line that ends
// it. The chunk rules are net/http's (internal/chunked.go).
func (r *reply) advance() {
	if !r.chunked {
		r.done, r.err = true, io.EOF
		return
	}
	if r.crlf {
		r.crlf = false
		if r.err = r.expectCRLF(); r.err != nil {
			return
		}
	}
	line, err := r.br.ReadSlice('\n')
	switch {
	case err == io.EOF:
		r.err = io.ErrUnexpectedEOF
		return
	case err == bufio.ErrBufferFull || len(line) >= maxChunkLine:
		r.err = errors.New("rpc: chunk-size line too long")
		return
	case err != nil:
		r.err = err
		return
	}
	size, ok := parseHex(cutByte(bytes.TrimRight(line, asciiSpace), ';'))
	if !ok {
		r.err = fmt.Errorf("rpc: bad chunk size %q", line)
		return
	}
	if size > 0 {
		r.n = size
		return
	}
	for {
		line, err := r.line()
		if err != nil {
			r.err = err
			return
		}
		if len(line) == 0 {
			r.done, r.err = true, io.EOF
			return
		}
	}
}

// expectCRLF reads the CRLF that ends a chunk's data.
func (r *reply) expectCRLF() error {
	for _, want := range [2]byte{'\r', '\n'} {
		c, err := r.br.ReadByte()
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if c != want {
			return errors.New("rpc: malformed chunked encoding")
		}
	}
	return nil
}

// parseDecimal parses decimal digits (leading zeros allowed) below 2⁶³, as
// strconv.ParseUint(s, 10, 63) does.
func parseDecimal(b []byte) (int64, bool) {
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' || n > (math.MaxInt64-int64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, len(b) > 0
}

// parseHex parses a chunk size: 1 to 16 hex digits, below 2⁶³.
func parseHex(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		n = n<<4 | uint64(c)
	}
	return int64(n), n <= math.MaxInt64
}

// asciiSpace is the whitespace textproto trims from a header line.
const asciiSpace = " \t\r\n"

// cutByte returns b up to its first c.
func cutByte(b []byte, c byte) []byte {
	if i := bytes.IndexByte(b, c); i >= 0 {
		return b[:i]
	}
	return b
}

// equalFold is ASCII case-insensitive equality of b and s.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasToken reports whether the comma-separated header value v lists tok.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		t := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			t, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if equalFold(bytes.Trim(t, " \t"), tok) {
			return true
		}
	}
	return false
}
