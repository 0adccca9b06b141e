package tib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathdump/internal/types"
)

// pageCount is the number of pages p holds.
func pageCount[T any](p *pages[T]) int {
	n := 0
	for range p.all {
		n++
	}
	return n
}

// checkPages holds p to model: its length, every index through at, the
// pages in order through all, and — the paging contract — every element
// still at the address it was appended at (ptrs), so nothing was copied.
func checkPages(p *pages[int], model []int, ptrs []*int) error {
	if p.n != len(model) {
		return fmt.Errorf("length %d, model %d", p.n, len(model))
	}
	for i, want := range model {
		if got := p.at(i); got != ptrs[i] || *got != want {
			return fmt.Errorf("element %d is %d at %p, appended %d at %p", i, *got, got, want, ptrs[i])
		}
	}
	var flat []int
	for pg := range p.all {
		if len(pg) == 0 {
			return fmt.Errorf("an empty page")
		}
		flat = append(flat, pg...)
	}
	if !slices.Equal(flat, model) {
		return fmt.Errorf("the pages hold %v, model %v", flat, model)
	}
	return nil
}

// TestPagesMatchModel appends at random to paged buffers — unseeded, as
// a shard's first segment and a never-sealing store have them, and seeded
// by predecessors of 1, 2 and random lengths — and holds each to a plain
// slice after every append: what every index reads, what every earlier
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
			ptrs = append(ptrs, p.at(i))
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

// TestChainsMatchModel holds every flow's and every link's chain in a
// paged index to a plain slice of entries: walked from the newest entry
// down to random watermarks, on unseeded indexes and on ones a seal
// seeded, with chains captured part-way through still walking the prefix
// they captured after the writer moved on and the seal cleared the
// tables.
func TestChainsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	flows := make([]types.FlowID, 12)
	for i := range flows {
		flows[i] = flowN(1000 + i)
	}
	links := []types.LinkID{{A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 2}, {A: 2, B: 1}, {A: 3, B: 4}, {A: 4, B: 5}, {A: 9, B: 9}}
	randPath := func() types.Path {
		p := types.Path{types.SwitchID(1 + rng.Intn(4))}
		for k := rng.Intn(6); k > 0; k-- { // loops and revisits included
			p = append(p, types.SwitchID(1+rng.Intn(5)))
		}
		return p
	}
	want := func(model []entry, since uint64, flow *types.FlowID, link types.LinkID) []uint64 {
		var seqs []uint64
		for _, e := range model {
			if e.seq > since && ((flow != nil && e.rec.Flow == *flow) || (flow == nil && e.rec.Path.ContainsLink(link))) {
				seqs = append(seqs, e.seq)
			}
		}
		return seqs
	}
	walk := func(ch chain, since uint64) []uint64 {
		var seqs []uint64
		for _, e := range ch.walk(since, nil) {
			seqs = append(seqs, e.seq)
		}
		return seqs
	}
	type captured struct {
		ch    chain
		model []entry
		sel   selector
	}
	for round := 0; round < 60; round++ {
		pred := []int{0, 1, 2, rng.Intn(400)}[round%4]
		x := new(chainIndex)
		seq := uint64(0)
		add := func(x *chainIndex) entry {
			seq++
			f := flows[rng.Intn(len(flows))]
			e := entry{seq: seq, rec: mkRecord(f, randPath(), 0, 1, 1, 1)}
			x.add(&e, types.StoreHash(f))
			return e
		}
		if pred > 0 {
			for i := 0; i < pred; i++ {
				add(x)
			}
			x = x.successor()
		}
		var (
			model []entry
			tabs  pageTabs
			caps  []captured
		)
		n := 1 + rng.Intn(2*pred+300)
		for i := 0; i < n; i++ {
			model = append(model, add(x))
			if rng.Intn(40) != 0 && i != n-1 {
				continue
			}
			for k := range flows {
				sel := selector{flow: &flows[k], fh: types.StoreHash(flows[k])}
				since := uint64(rng.Int63n(int64(seq) + 1))
				if got, want := walk(x.chain(&sel, &tabs), since), want(model, since, sel.flow, types.LinkID{}); !slices.Equal(got, want) {
					t.Fatalf("round %d, %d entries: flow %d since %d walks %v, model %v", round, len(model), k, since, got, want)
				}
				caps = append(caps, captured{x.chain(&sel, &tabs), model, sel})
			}
			for _, l := range links {
				sel := selector{link: l}
				since := uint64(rng.Int63n(int64(seq) + 1))
				if got, want := walk(x.chain(&sel, &tabs), since), want(model, since, nil, l); !slices.Equal(got, want) {
					t.Fatalf("round %d, %d entries: link %v since %d walks %v, model %v", round, len(model), l, since, got, want)
				}
				caps = append(caps, captured{x.chain(&sel, &tabs), model, sel})
			}
		}
		x.successor() // clears the head and page tables the chains copied
		for _, c := range caps {
			if got, want := walk(c.ch, 0), want(c.model, 0, c.sel.flow, c.sel.link); !slices.Equal(got, want) {
				t.Fatalf("round %d: a chain captured at %d entries walks %v, model %v", round, len(c.model), got, want)
			}
		}
	}
}
