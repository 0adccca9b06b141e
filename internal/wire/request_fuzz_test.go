package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// Where `go test -fuzz` looks for the request fuzzers' seeds.
const (
	queryReqCorpusDir = "testdata/fuzz/FuzzReadQueryRequest"
	batchReqCorpusDir = "testdata/fuzz/FuzzReadBatchRequest"
)

// queryReqSeeds are the frames FuzzReadQueryRequest starts from: a
// request naming its host, one without a host, and one setting every
// query field.
func queryReqSeeds(tb testing.TB) map[string][]byte {
	host := types.HostID(42)
	reqs := map[string]struct {
		host *types.HostID
		q    query.Query
	}{
		"topk-at-host": {&host, query.Query{Op: query.OpTopK, K: 5, Link: types.AnyLink}},
		"no-host":      {nil, query.Query{Op: query.OpRecords, Range: types.TimeRange{From: 10, To: 20}}},
		"every-field":  {&host, *fullQuery()},
	}
	seeds := make(map[string][]byte, len(reqs))
	for name, r := range reqs {
		var buf bytes.Buffer
		if err := WriteQueryRequest(&buf, r.host, &r.q); err != nil {
			tb.Fatal(err)
		}
		seeds[name] = buf.Bytes()
	}
	return seeds
}

// batchReqSeeds are the frames FuzzReadBatchRequest starts from: a few
// hosts, none, and a request setting every query field with a negative
// parallelism (the daemon's own limit).
func batchReqSeeds(tb testing.TB) map[string][]byte {
	reqs := map[string]struct {
		hosts    []types.HostID
		q        query.Query
		parallel int
	}{
		"three-hosts": {[]types.HostID{0, 7, 1 << 20}, query.Query{Op: query.OpTopK, K: 10, Link: types.AnyLink}, 4},
		"no-hosts":    {nil, query.Query{Op: query.OpCount}, 0},
		"every-field": {[]types.HostID{5}, *fullQuery(), -1},
	}
	seeds := make(map[string][]byte, len(reqs))
	for name, r := range reqs {
		var buf bytes.Buffer
		if err := WriteBatchRequest(&buf, r.hosts, &r.q, r.parallel); err != nil {
			tb.Fatal(err)
		}
		seeds[name] = buf.Bytes()
	}
	return seeds
}

// TestRequestSeedCorpus: the request seeds decode fresh and as
// committed, so the committed ones pin the request frames' byte format.
func TestRequestSeedCorpus(t *testing.T) {
	for _, c := range []struct {
		dir   string
		seeds map[string][]byte
		read  func(string) error
	}{
		{queryReqCorpusDir, queryReqSeeds(t), func(frame string) error {
			_, _, err := ReadQueryRequest(strings.NewReader(frame))
			return err
		}},
		{batchReqCorpusDir, batchReqSeeds(t), func(frame string) error {
			_, _, _, err := ReadBatchRequest(strings.NewReader(frame))
			return err
		}},
	} {
		for name, data := range c.seeds {
			if err := c.read(string(data)); err != nil {
				t.Errorf("%s seed %s: %v", c.dir, name, err)
			}
			if committed, ok := committedSeed(t, c.dir, name, data); ok {
				if err := c.read(committed); err != nil {
					t.Errorf("%s committed seed %s: %v", c.dir, name, err)
				}
			}
		}
	}
}

// FuzzReadQueryRequest drives the /query request decoder — the first
// bytes a daemon reads from the controller — with arbitrary bytes. It
// must never panic or allocate past the caps; whatever it accepts must
// re-encode (WriteQueryRequest) to a frame that decodes to the same host
// and query, of which no strict prefix is accepted.
func FuzzReadQueryRequest(f *testing.F) {
	for _, data := range queryReqSeeds(f) {
		f.Add(data)
	}
	read := func(b []byte) error {
		_, _, err := ReadQueryRequest(bytes.NewReader(b))
		return err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var host *types.HostID
		var q query.Query
		var err error
		checkDecodeAlloc(t, data, func() { host, q, err = ReadQueryRequest(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var frame bytes.Buffer
		if err := WriteQueryRequest(&frame, host, &q); err != nil {
			t.Fatal(err)
		}
		host2, q2, err := ReadQueryRequest(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded frame is rejected: %v", err)
		}
		if !reflect.DeepEqual(host, host2) || !reflect.DeepEqual(q, q2) {
			t.Fatalf("request changed across a re-encode:\n%v %s\n%v %s", host, mustJSON(t, q), host2, mustJSON(t, q2))
		}
		checkNoPrefix(t, frame.Bytes(), read)
	})
}

// FuzzReadBatchRequest is FuzzReadQueryRequest for the /batchquery
// request: the host list, the query and the parallelism must survive a
// re-encode (WriteBatchRequest), and no strict prefix is accepted.
func FuzzReadBatchRequest(f *testing.F) {
	for _, data := range batchReqSeeds(f) {
		f.Add(data)
	}
	read := func(b []byte) error {
		_, _, _, err := ReadBatchRequest(bytes.NewReader(b))
		return err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hosts []types.HostID
		var q query.Query
		var parallel int
		var err error
		checkDecodeAlloc(t, data, func() { hosts, q, parallel, err = ReadBatchRequest(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var frame bytes.Buffer
		if err := WriteBatchRequest(&frame, hosts, &q, parallel); err != nil {
			t.Fatal(err)
		}
		hosts2, q2, parallel2, err := ReadBatchRequest(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded frame is rejected: %v", err)
		}
		if !reflect.DeepEqual(hosts, hosts2) || !reflect.DeepEqual(q, q2) || parallel != parallel2 {
			t.Fatalf("request changed across a re-encode:\n%v %s %d\n%v %s %d", hosts, mustJSON(t, q), parallel, hosts2, mustJSON(t, q2), parallel2)
		}
		checkNoPrefix(t, frame.Bytes(), read)
	})
}
