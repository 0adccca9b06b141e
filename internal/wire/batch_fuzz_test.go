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
// records section, and a flate frame of every section kind.
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
		"flate-frame":     {{Host: 4, Result: *fullResult(rng)}, top(5), {Host: 6, Error: "deadline"}},
	}
	seeds := make(map[string][]byte, len(frames))
	for name, replies := range frames {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, replies, name == "flate-frame"); err != nil {
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
func committedSeed(t *testing.T, dir, name string, data []byte) (seed string, ok bool) {
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
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	seed, err = strconv.Unquote(strings.TrimSuffix(body, ")\n"))
	if !ok || err != nil {
		t.Fatalf("%s is not a fuzz corpus file: %v", path, err)
	}
	return seed, true
}

// decodeSlack is what one frame may allocate whatever its length: a
// records chunk sized at its cap, and the first 4096 of any other count.
const decodeSlack = maxChunk*uint64(unsafe.Sizeof(types.Record{})) + 4<<20

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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replies, err := ReadBatch(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+decodeSlack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		compress := data[5]&FlagFlate != 0
		var frame bytes.Buffer
		if err := WriteBatch(&frame, replies, compress); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBatch(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded frame is rejected: %v", err)
		}
		if a, b := mustJSON(t, replies), mustJSON(t, again); a != b {
			t.Fatalf("replies changed across a re-encode:\n%s\n%s", a, b)
		}
		cuts := []int{0, 6, frame.Len() / 2, frame.Len() - 1}
		if frame.Len() <= 512 {
			cuts = cuts[:0]
			for n := range frame.Len() {
				cuts = append(cuts, n)
			}
		}
		for _, n := range cuts {
			if _, err := ReadBatch(bytes.NewReader(frame.Bytes()[:min(n, frame.Len()-1)])); err == nil {
				t.Fatalf("strict prefix (%d of %d bytes) of a frame accepted", n, frame.Len())
			}
		}
		if len(replies) == 0 {
			return
		}
		var short bytes.Buffer
		stop := len(replies) / 2
		err = WriteBatchEach(&short, len(replies), compress, func(i int) *BatchReply {
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
