package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pathdump/internal/query"
	"pathdump/internal/types"
)

// batchCorpusDir is where `go test -fuzz` looks for FuzzReadBatchEach's
// seeds.
const batchCorpusDir = "testdata/fuzz/FuzzReadBatchEach"

// batchSeeds are the frames FuzzReadBatchEach starts from: two sections,
// sections that carry errors (one longer than the decoder takes), a
// records section, and no sections at all. The committed corpus also holds "flate-frame", written
// by a build that could set the frame's flags byte; it is kept to pin that
// a nonzero flags byte is rejected (TestUnknownFlagsRejected).
func batchSeeds(tb testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(25))
	top := func(h types.HostID) BatchReply {
		return BatchReply{Host: h, Meta: Meta{RecordsScanned: 40, SegmentsScanned: 3, SegmentsPruned: 1, ColdLoads: 1, ScanTime: 250 * time.Microsecond}, Result: query.Result{
			Op:  query.OpTopK,
			Top: []query.FlowBytes{{Flow: types.FlowID{SrcIP: types.IP(h), DstIP: 9, SrcPort: 80, DstPort: 443, Proto: 6}, Bytes: 1500, Pkts: 2}},
		}}
	}
	frames := map[string][]BatchReply{
		"two-sections": {top(3), top(1)},
		"error-sections": {
			{Host: 7, Error: "rpc: host h7 not served here"},
			top(8),
			{Host: 9, Error: strings.Repeat("x", maxErrLen+10)},
		},
		"records-section": {{Host: 2, Result: *randResult(rng, 40)}},
		"no-sections":     nil,
	}
	seeds := make(map[string][]byte, len(frames))
	for name, replies := range frames {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, replies, false); err != nil {
			tb.Fatal(err)
		}
		seeds[name] = buf.Bytes()
	}
	return seeds
}

// TestBatchSeedCorpus: the seeds are accepted fresh, and so are the
// committed ones — written by an earlier build, they pin the frame's byte
// format. A seed missing from testdata is written, so deleting the
// directory and re-running this test regenerates the corpus.
func TestBatchSeedCorpus(t *testing.T) {
	for name, data := range batchSeeds(t) {
		if _, err := ReadBatch(bytes.NewReader(data)); err != nil {
			t.Errorf("seed %s: %v", name, err)
		}
		committed, ok := committedSeed(t, batchCorpusDir, name, data)
		if !ok {
			continue
		}
		if _, err := ReadBatch(strings.NewReader(committed)); err != nil {
			t.Errorf("committed seed %s: %v", name, err)
		}
	}
}

// committedSeed reads the committed corpus file dir/name. A missing one
// is written from data and reported as absent (ok false), so deleting a
// corpus directory and re-running its seed test regenerates it.
func committedSeed(t *testing.T, dir, name string, data []byte) (string, bool) {
	t.Helper()
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("go test fuzz v1\n[]byte("+strconv.Quote(string(data))+")\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote missing seed %s", path)
		return "", false
	}
	return parseSeed(t, path, raw), true
}

// parseSeed returns the frame held by raw, the contents of the corpus
// file at path.
func parseSeed(t *testing.T, path string, raw []byte) string {
	t.Helper()
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	seed, err := strconv.Unquote(strings.TrimSuffix(body, ")\n"))
	if !ok || err != nil {
		t.Fatalf("%s is not a fuzz corpus file: %v", path, err)
	}
	return seed
}

// decodeSlack is what one frame may allocate whatever its length: a
// records chunk sized at its cap, and the first 4096 of any other count.
const decodeSlack = maxChunk*uint64(unsafe.Sizeof(types.Record{})) + 4<<20

// checkDecodeAlloc fails t if decoding data allocated past what the
// section caps allow.
func checkDecodeAlloc(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+decodeSlack {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
}

// checkNoPrefix fails t if read accepts a strict prefix of frame: every
// one of a short frame, a sample of a long one.
func checkNoPrefix(t *testing.T, frame []byte, read func([]byte) error) {
	t.Helper()
	cuts := []int{0, 6, len(frame) / 2, len(frame) - 1}
	if len(frame) <= 512 {
		cuts = cuts[:0]
		for n := range len(frame) {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		if read(frame[:n]) == nil {
			t.Fatalf("strict prefix (%d of %d bytes) of a frame accepted", n, len(frame))
		}
	}
}

// FuzzReadBatchEach drives the batch frame's decoder — the one a daemon's
// streamed sections meet at the controller — with arbitrary bytes. It must
// never panic or allocate past what the section caps allow; whatever it
// accepts must re-encode (WriteBatch) to a frame that decodes to the same
// replies, of which no strict prefix is accepted, and a writer that stops
// short (WriteBatchEach's nil) must leave a frame that is rejected.
func FuzzReadBatchEach(f *testing.F) {
	for _, data := range batchSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var replies []BatchReply
		var err error
		checkDecodeAlloc(t, data, func() { replies, err = ReadBatch(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var frame bytes.Buffer
		if err := WriteBatch(&frame, replies, false); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBatch(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded frame is rejected: %v", err)
		}
		if a, b := mustJSON(t, replies), mustJSON(t, again); a != b {
			t.Fatalf("replies changed across a re-encode:\n%s\n%s", a, b)
		}
		checkNoPrefix(t, frame.Bytes(), func(b []byte) error {
			_, err := ReadBatch(bytes.NewReader(b))
			return err
		})
		if len(replies) == 0 {
			return
		}
		var short bytes.Buffer
		stop := len(replies) / 2
		err = WriteBatchEach(&short, len(replies), func(i int) *BatchReply {
			if i == stop {
				return nil
			}
			return &replies[i]
		})
		if err == nil {
			t.Fatal("a frame cut short wrote without an error")
		}
		if _, err := ReadBatch(&short); err == nil {
			t.Fatalf("a frame cut after %d of %d sections accepted", stop, len(replies))
		}
	})
}

func mustJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
