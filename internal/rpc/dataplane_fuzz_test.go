package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// replyCorpusDir is where `go test -fuzz` looks for FuzzReplyHead's seeds.
const replyCorpusDir = "testdata/fuzz/FuzzReplyHead"

// replySeeds are the replies FuzzReplyHead starts from: the two framings a
// daemon's server writes, what it never writes but the client must still
// read right — chunk extensions and a trailer, HTTP/1.0, Connection:
// close, a status without a body — a traced reply, an error page, and two
// replies back to back, where reading one must leave the next unread.
func replySeeds() map[string][]byte {
	const wireCT = "Content-Type: application/x-pathdump-wire\r\n"
	return map[string][]byte{
		"content-length":    []byte("HTTP/1.1 200 OK\r\n" + wireCT + "Content-Length: 6\r\n\r\nPDW1\x01\x00"),
		"chunked":           []byte("HTTP/1.1 200 OK\r\n" + wireCT + "Transfer-Encoding: chunked\r\n\r\n4;ext=\"v\"\r\nPDW1\r\n2 \r\n\x01\x00\r\n0\r\nX-Trailer: yes\r\n\r\n"),
		"http10":            []byte("HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nread to the end"),
		"http10-keep-alive": []byte("HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok"),
		"connection-close":  []byte("HTTP/1.1 200 OK\r\nconnection: Keep-Alive, close\r\nContent-Length: 2\r\n\r\nok"),
		"no-content":        []byte("HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n"),
		"traced":            []byte("HTTP/1.1 200 OK\r\n" + wireCT + "X-Pathdump-Span: {\"name\":\"scan\",\"attrs\":{\"trace\":\"5f0c\"}}\r\nContent-Length: 0\r\n\r\n"),
		"not-found":         []byte("HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\nContent-Length: 30\r\n\r\nrpc: host h99 not served here\n"),
		"pipelined":         []byte("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nAHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nB"),
	}
}

// TestReplySeedCorpus: every seed is a reply both decoders take, and the
// committed corpus holds them all. A seed missing from testdata is
// written, so deleting the directory and re-running this test regenerates
// the corpus.
func TestReplySeedCorpus(t *testing.T) {
	for name, data := range replySeeds() {
		if d, _ := decodeReply(data); d.err != nil {
			t.Errorf("seed %s: %v", name, d.err)
		}
		if d := decodeNetHTTP(data); d.err != nil {
			t.Errorf("seed %s: net/http: %v", name, d.err)
		}
		path := filepath.Join(replyCorpusDir, name)
		raw, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			if err := os.MkdirAll(replyCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("go test fuzz v1\n[]byte("+strconv.Quote(string(data))+")\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote missing seed %s", path)
			continue
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		committed, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s is not a fuzz corpus file: %v", path, err)
		}
		if committed != string(data) {
			t.Errorf("committed seed %s differs from the seed in the test", name)
		}
	}
}

// decoded is what one decoder made of a reply.
type decoded struct {
	code int
	body []byte
	// keep is the keep-alive verdict: may the connection carry another
	// exchange once the body is read?
	keep bool
	// head and rest are the bytes consumed by the head and left unread
	// after the body.
	head, rest int
	// length is the body length the head declares (Content-Length, or 0
	// by status); -1 for a chunked body or one read to EOF.
	length int64
	err    error
}

// decodeReply reads data as the data plane reads a reply off its 4 KiB
// connection buffer, body included; delimited reports a body its framing
// ends (Content-Length, chunked, or none by status) rather than EOF.
func decodeReply(data []byte) (d decoded, delimited bool) {
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 4<<10)
	var r reply
	if d.err = r.readHead(br); d.err != nil {
		return d, false
	}
	d.code, d.head, delimited = r.code, len(data)-br.Buffered()-src.Len(), r.n >= 0
	if d.length = r.n; r.chunked {
		d.length = -1
	}
	d.body, d.err = io.ReadAll(&r)
	d.keep = r.keep && r.done
	d.rest = br.Buffered() + src.Len()
	return d, delimited
}

// decodeNetHTTP reads data with http.ReadResponse on a reader of the same
// size. Its keep-alive verdict is net/http's with the data plane's one
// extra rule: an HTTP/1.0 reply never keeps its connection.
func decodeNetHTTP(data []byte) (d decoded) {
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 4<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		d.err = err
		return d
	}
	d.code = resp.StatusCode
	d.body, d.err = io.ReadAll(resp.Body)
	d.keep = !resp.Close && resp.ProtoAtLeast(1, 1)
	d.rest = br.Buffered() + src.Len()
	return d
}

// FuzzReplyHead drives the data plane's reply decoder — status line,
// header scan and body framing — with arbitrary bytes. It must never
// panic; a Content-Length body must end exactly where it says; no strict
// prefix of a delimited reply it accepts may decode to a complete body;
// and wherever http.ReadResponse takes the same bytes, the decoder must
// too (but for the replies errUnsupportedReply names) and agree on the
// status code, the body, the keep-alive verdict and where the reply ends.
func FuzzReplyHead(f *testing.F) {
	for _, data := range replySeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ours, delimited := decodeReply(data)
		theirs := decodeNetHTTP(data)
		if ours.err == nil && delimited {
			end := len(data) - ours.rest
			if cl := ours.length; cl >= 0 && (int64(len(ours.body)) != cl || int64(end-ours.head) != cl) {
				t.Fatalf("a %d-byte body read as %d bytes over %d", cl, len(ours.body), end-ours.head)
			}
			cuts := []int{0, ours.head - 1, ours.head, end / 2, end - 1}
			if end <= 512 {
				cuts = cuts[:0]
				for n := range end {
					cuts = append(cuts, n)
				}
			}
			for _, n := range cuts {
				if n < 0 || n >= end {
					continue
				}
				if d, _ := decodeReply(data[:n]); d.err == nil {
					t.Fatalf("strict prefix (%d of %d bytes) of a reply decoded complete: %q", n, end, data[:n])
				}
			}
		}
		switch {
		case theirs.err != nil:
		case ours.err != nil:
			if !errors.Is(ours.err, errUnsupportedReply) {
				t.Fatalf("net/http takes %q, the data plane refuses it: %v", data, ours.err)
			}
		case ours.code != theirs.code:
			t.Fatalf("status %d, net/http reads %d", ours.code, theirs.code)
		case !bytes.Equal(ours.body, theirs.body):
			t.Fatalf("body %q, net/http reads %q", ours.body, theirs.body)
		case ours.keep != theirs.keep:
			t.Fatalf("keep-alive %v, net/http says %v: %q", ours.keep, theirs.keep, data)
		case ours.rest != theirs.rest:
			t.Fatalf("%d bytes left after the reply, net/http leaves %d", ours.rest, theirs.rest)
		}
	})
}
