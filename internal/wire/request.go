package wire

// Request-side frames. Queries fan out to thousands of hosts, so the data
// plane's requests travel in the same varint/columnar format as
// responses: a client marks the body with the wire Content-Type, and a
// server decodes a body by its Content-Type, any other than the wire one
// as JSON (see internal/rpc). The control plane (install, uninstall)
// speaks JSON only.

import (
	"fmt"
	"io"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// WriteQueryRequest encodes a /query request frame: an optional target
// host plus the query itself.
func WriteQueryRequest(w io.Writer, host *types.HostID, q *query.Query) error {
	return writeFrame(w, kindQueryReq, func(bw *writer) {
		writeHostPtr(bw, host)
		writeQuery(bw, q)
	})
}

// ReadQueryRequest decodes a /query request frame.
func ReadQueryRequest(r io.Reader) (*types.HostID, query.Query, error) {
	var host *types.HostID
	var q query.Query
	err := readFrame(r, kindQueryReq, func(br *reader) {
		host = readHostPtr(br)
		readQuery(br, &q)
	})
	if err != nil {
		return nil, query.Query{}, err
	}
	return host, q, nil
}

// WriteBatchRequest encodes a /batchquery request frame: the host list,
// the query, and the requested per-batch parallelism.
func WriteBatchRequest(w io.Writer, hosts []types.HostID, q *query.Query, parallel int) error {
	return writeFrame(w, kindBatchReq, func(bw *writer) {
		bw.uvarint(uint64(len(hosts)))
		for _, h := range hosts {
			bw.uvarint(uint64(h))
		}
		writeQuery(bw, q)
		bw.svarint(int64(parallel))
	})
}

// ReadBatchRequest decodes a /batchquery request frame.
func ReadBatchRequest(r io.Reader) ([]types.HostID, query.Query, int, error) {
	var hosts []types.HostID
	var q query.Query
	var parallel int
	err := readFrame(r, kindBatchReq, func(br *reader) {
		n := br.count("batch request hosts", maxReplies)
		hosts = make([]types.HostID, 0, min(n, 4096))
		for i := 0; i < n && br.err == nil; i++ {
			hosts = append(hosts, types.HostID(br.uvarint()))
		}
		readQuery(br, &q)
		parallel = int(br.svarint())
	})
	if err != nil {
		return nil, query.Query{}, 0, err
	}
	return hosts, q, parallel, nil
}

func writeHostPtr(w *writer, host *types.HostID) {
	if host == nil {
		w.byte(0)
		return
	}
	w.byte(1)
	w.uvarint(uint64(*host))
}

func readHostPtr(r *reader) *types.HostID {
	switch r.byte() {
	case 0:
		return nil
	case 1:
		h := types.HostID(r.uvarint())
		return &h
	default:
		r.fail(fmt.Errorf("wire: corrupt frame: bad host presence byte"))
		return nil
	}
}

// writeQuery encodes every Query field in declaration order; fields
// irrelevant to the op are zero and cost one byte each.
func writeQuery(w *writer, q *query.Query) {
	w.str(string(q.Op))
	w.uvarint(uint64(q.Link.A))
	w.uvarint(uint64(q.Link.B))
	w.uvarint(uint64(len(q.Links)))
	for _, l := range q.Links {
		w.uvarint(uint64(l.A))
		w.uvarint(uint64(l.B))
	}
	writeFlowID(w, q.Flow)
	writePath(w, q.Path)
	w.svarint(int64(q.Range.From))
	w.svarint(int64(q.Range.To))
	w.svarint(int64(q.K))
	w.uvarint(q.BinBytes)
	w.svarint(int64(q.Threshold))
	w.svarint(int64(q.MaxPathLen))
	writeSwitchList(w, q.Avoid)
	writeSwitchList(w, q.Waypoints)
}

func readQuery(r *reader, q *query.Query) {
	q.Op = r.op()
	q.Link.A = types.SwitchID(r.uvarint())
	q.Link.B = types.SwitchID(r.uvarint())
	if n := r.count("query links", maxElems); n > 0 {
		q.Links = make([]types.LinkID, 0, min(n, 4096))
		for i := 0; i < n && r.err == nil; i++ {
			var l types.LinkID
			l.A = types.SwitchID(r.uvarint())
			l.B = types.SwitchID(r.uvarint())
			q.Links = append(q.Links, l)
		}
	}
	q.Flow = readFlowID(r)
	q.Path = readPath(r)
	q.Range.From = types.Time(r.svarint())
	q.Range.To = types.Time(r.svarint())
	q.K = int(r.svarint())
	q.BinBytes = r.uvarint()
	q.Threshold = int(r.svarint())
	q.MaxPathLen = int(r.svarint())
	q.Avoid = readSwitchList(r)
	q.Waypoints = readSwitchList(r)
}

func writeSwitchList(w *writer, sws []types.SwitchID) {
	w.uvarint(uint64(len(sws)))
	for _, s := range sws {
		w.uvarint(uint64(s))
	}
}

func readSwitchList(r *reader) []types.SwitchID {
	n := r.count("switch list", maxPathLen)
	if n == 0 {
		return nil
	}
	sws := make([]types.SwitchID, 0, min(n, 1024))
	for i := 0; i < n && r.err == nil; i++ {
		sws = append(sws, types.SwitchID(r.uvarint()))
	}
	return sws
}
