package tib

import (
	"slices"
	"testing"

	"pathdump/internal/types"
)

// mergeStore holds n records over all 16 stripes, consecutive arrivals in
// different stripes, each stripe a chain of small sealed blocks ahead of
// its active segment. benchRecord(i) arrives with sequence i+1 and carries
// i in Bytes.
func mergeStore(n int) *Store {
	s := NewStoreConfig(Config{SegmentRecords: 37})
	for i := 0; i < n; i++ {
		s.Add(benchRecord(i))
	}
	return s
}

// visited runs ScanSince and returns the Bytes of the records it visited,
// stopping after stop records (0 = never).
func visited(s *Store, since, until uint64, link types.LinkID, tr types.TimeRange, stop int) []int {
	var got []int
	s.ScanSince(since, until, nil, link, tr, func(rec *types.Record) bool {
		got = append(got, int(rec.Bytes))
		return stop == 0 || len(got) < stop
	})
	return got
}

func span(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestMergeWindows: the cross-stripe merge visits records in arrival
// order across many merge windows, with the sequence window cut inside
// one, with the time and link terms applied, and after a scan that
// stopped part-way through a window.
func TestMergeWindows(t *testing.T) {
	const n = 5 * mergeWindow
	s := mergeStore(n)
	if got := visited(s, 0, 0, types.AnyLink, types.AllTime, 0); !slices.Equal(got, span(0, n)) {
		t.Fatalf("full scan visited %d records out of order or incomplete", len(got))
	}
	for _, c := range [][2]int{{100, 700}, {mergeWindow - 1, mergeWindow + 1}, {0, 2*mergeWindow + 3}, {n - 5, n}} {
		if got := visited(s, uint64(c[0]), uint64(c[1]), types.AnyLink, types.AllTime, 0); !slices.Equal(got, span(c[0], c[1])) {
			t.Errorf("scan of (%d, %d] visited %v", c[0], c[1], got)
		}
	}
	for _, stop := range []int{1, mergeWindow - 1, mergeWindow, 3*mergeWindow + 7} {
		if got := visited(s, 0, 0, types.AnyLink, types.AllTime, stop); !slices.Equal(got, span(0, stop)) {
			t.Errorf("scan stopped after %d visited %v", stop, got)
		}
		// The stopped scan's buffer goes back to the pool half-way through
		// a window; the next scan, whose window has slots it leaves
		// empty, must not see what the stopped one left there.
		if got := visited(s, 0, 10, types.AnyLink, types.AllTime, 0); !slices.Equal(got, span(0, 10)) {
			t.Fatalf("scan of (0, 10] after one stopped at %d visited %v", stop, got)
		}
	}
	tr := types.TimeRange{From: 1000 * types.Millisecond, To: 1100 * types.Millisecond}
	var want []int
	for i := 0; i < n; i++ {
		if rec := benchRecord(i); rec.Overlaps(tr) {
			want = append(want, i)
		}
	}
	if got := visited(s, 0, 0, types.AnyLink, tr, 0); !slices.Equal(got, want) {
		t.Errorf("time-range scan visited %v, want %v", got, want)
	}
	link := types.LinkID{A: 3, B: types.WildcardSwitch}
	want = want[:0]
	for i := 0; i < n; i++ {
		if rec := benchRecord(i); rec.Path.ContainsLink(link) {
			want = append(want, i)
		}
	}
	if got := visited(s, 0, 0, link, types.AllTime, 0); !slices.Equal(got, want) {
		t.Errorf("link scan visited %d records, want %d", len(got), len(want))
	}
}
