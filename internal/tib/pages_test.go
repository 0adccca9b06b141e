package tib

import (
	"fmt"
	"math/rand"
	"testing"
)

// pageCount is the number of pages p holds.
func pageCount[T any](p *pages[T]) int {
	n := 0
	for range p.all {
		n++
	}
	return n
}

// checkPages holds p to model: its length, its pages in order through
// all, its newest element through last, and — the paging contract —
// every element still at the address it was appended at (ptrs), so
// nothing was copied.
func checkPages(p *pages[int], model []int, ptrs []*int) error {
	if p.n != len(model) {
		return fmt.Errorf("length %d, model %d", p.n, len(model))
	}
	i := 0
	for pg := range p.all {
		if len(pg) == 0 {
			return fmt.Errorf("an empty page")
		}
		for k := range pg {
			if i == len(model) {
				return fmt.Errorf("the pages hold more than the model's %d elements", len(model))
			}
			if got := &pg[k]; got != ptrs[i] || *got != model[i] {
				return fmt.Errorf("element %d is %d at %p, appended %d at %p", i, *got, got, model[i], ptrs[i])
			}
			i++
		}
	}
	if i != len(model) {
		return fmt.Errorf("the pages hold %d elements, model %d", i, len(model))
	}
	if i > 0 && p.last() != ptrs[i-1] {
		return fmt.Errorf("last is %p, the newest element was appended at %p", p.last(), ptrs[i-1])
	}
	return nil
}

// TestPagesMatchModel appends at random to paged buffers — unseeded, as
// a shard's first segment and a never-sealing store have them, and seeded
// by predecessors of 1, 2 and random lengths — and holds each to a plain
// slice after every append: what every element reads, what every earlier
// view still reads after the writer moved on and the seal handed the page
// table over, and the page count the seed promises: two pages for a run
// the size of its predecessor, three when it outgrows it by up to half.
func TestPagesMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		pred := []int{0, 1, 2, rng.Intn(300), rng.Intn(5000)}[round%5]
		var p pages[int]
		if pred > 0 {
			var before pages[int]
			for i := 0; i < pred; i++ {
				before.push(-i)
			}
			p = before.successor()
		}
		n := rng.Intn(3*pred + 50)
		if round%20 == 0 {
			n = 20_000 // a never-sealing store's buffer
		}
		type view struct {
			v    pages[int]
			upto int
		}
		var (
			model []int
			ptrs  []*int
			views []view
			tab   [][]int
		)
		for i := 0; i < n; i++ {
			v := rng.Int()
			p.push(v)
			model = append(model, v)
			ptrs = append(ptrs, p.last())
			if i < 64 || rng.Intn(max(100, n/8)) == 0 {
				if err := checkPages(&p, model, ptrs); err != nil {
					t.Fatalf("round %d (predecessor %d), after %d appends: %v", round, pred, i+1, err)
				}
			}
			if rng.Intn(max(50, n/16)) == 0 {
				views = append(views, view{p.view(&tab), len(model)})
			}
		}
		if err := checkPages(&p, model, ptrs); err != nil {
			t.Fatalf("round %d (predecessor %d), %d appends: %v", round, pred, n, err)
		}
		// The successor clears the page table the views copied, and takes it
		// over only at the size a seeded buffer fills: a larger one, grown
		// unseeded, would stay with every later segment.
		tabCap := cap(p.more)
		if next := p.successor(); (cap(next.more) > 0) != (tabCap > 0 && tabCap <= seededTable) {
			t.Fatalf("round %d: the successor holds a table of %d slots after one of %d", round, cap(next.more), tabCap)
		}
		for _, v := range views {
			if err := checkPages(&v.v, model[:v.upto], ptrs[:v.upto]); err != nil {
				t.Fatalf("round %d: a view of %d elements: %v", round, v.upto, err)
			}
		}
		if seed := (pred + 1) / 2; pred >= 2 {
			want := 0
			switch {
			case n > 0 && n <= 2*seed:
				want = (n + seed - 1) / seed
			case n > 2*seed && n <= 3*seed:
				want = 3
			}
			if got := pageCount(&p); want > 0 && got != want {
				t.Errorf("round %d: %d elements after a predecessor of %d fill %d pages, want %d", round, n, pred, got, want)
			}
		}
	}
}
