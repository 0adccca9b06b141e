package types

import (
	"math/rand"
	"testing"
)

func TestPathInterner(t *testing.T) {
	var in PathInterner
	a, b := Path{1, 2, 3}, Path{1, 2}
	if id, fresh := in.Intern(a); id != 0 || !fresh {
		t.Fatalf("first path: id %d fresh %v", id, fresh)
	}
	if id, fresh := in.Intern(b); id != 1 || !fresh {
		t.Fatalf("second path: id %d fresh %v", id, fresh)
	}
	if id, fresh := in.Intern(Path{1, 2, 3}); id != 0 || fresh {
		t.Fatalf("repeat of the first path: id %d fresh %v", id, fresh)
	}
	if id, fresh := in.Intern(nil); id != 2 || !fresh {
		t.Fatalf("empty path: id %d fresh %v", id, fresh)
	}
	if n := testing.AllocsPerRun(100, func() { in.Intern(a); in.Intern(b) }); n != 0 {
		t.Errorf("looking up known paths allocates %v times", n)
	}
	in.Reset()
	if id, fresh := in.Intern(b); id != 0 || !fresh {
		t.Fatalf("after Reset: id %d fresh %v", id, fresh)
	}
}

// TestPathInternerMatchesNaiveAcrossResets interleaves Intern and Reset
// against an interner that really forgets everything at Reset: ids are
// dense in first-appearance order within a generation whatever earlier
// generations saw, also past the point (internerKeep) where the kept keys
// are dropped. And a generation that meets only paths an earlier one met
// allocates nothing.
func TestPathInternerMatchesNaiveAcrossResets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in PathInterner
	naive := map[string]uint32{}
	path := func(i int) Path { return Path{SwitchID(i), SwitchID(i >> 4), 7}[:1+i%3] }
	universe := 40
	for step := 0; step < 60_000; step++ {
		switch {
		case step == 30_000:
			universe = 3 * internerKeep // now a generation can outgrow the cap
		case rng.Intn(50) == 0:
			in.Reset()
			clear(naive)
			continue
		}
		p := path(rng.Intn(universe))
		want, seen := naive[p.Key()]
		if !seen {
			want = uint32(len(naive))
			naive[p.Key()] = want
		}
		if id, fresh := in.Intern(p); id != want || fresh == seen {
			t.Fatalf("step %d: Intern(%v) = %d, fresh %v; a naive interner says %d, fresh %v", step, p, id, fresh, want, !seen)
		}
	}

	var warm PathInterner
	paths := make([]Path, 48)
	for i := range paths {
		paths[i] = path(i)
	}
	use := func() {
		for i, p := range paths {
			if id, _ := warm.Intern(p); id != uint32(i) {
				t.Fatalf("path %d interned as %d", i, id)
			}
		}
		warm.Reset()
	}
	use()
	if n := testing.AllocsPerRun(100, use); n != 0 {
		t.Errorf("re-interning %d known paths after Reset allocates %v times, want 0", len(paths), n)
	}
}

func TestFlowSet(t *testing.T) {
	f, g := FlowID{SrcIP: 1, DstPort: 80}, FlowID{SrcIP: 2, DstPort: 80}
	p, q := Path{1, 10, 20}, Path{2, 10, 20}
	pAgain := Path{1, 10, 20} // equal to p, not the same array
	var s FlowSet
	// Twice over: the second pass reuses the maps Reset kept.
	for pass := 0; pass < 2; pass++ {
		// A lone member, however often repeated, allocates nothing.
		if n := testing.AllocsPerRun(100, func() {
			s.Reset()
			s.Add(f, p)
			if ord, fresh := s.Add(f, pAgain); ord != 0 || fresh {
				t.Fatalf("repeat of the lone member: ord %d fresh %v", ord, fresh)
			}
		}); n != 0 {
			t.Errorf("pass %d: a one-member set allocates %v times", pass, n)
		}
		for i, add := range []struct {
			id    FlowID
			p     Path
			ord   int
			fresh bool
		}{
			{f, q, 1, true}, {g, p, 2, true}, {f, p, 0, false}, {f, q, 1, false}, {g, q, 3, true},
		} {
			if ord, fresh := s.Add(add.id, add.p); ord != add.ord || fresh != add.fresh {
				t.Fatalf("pass %d add %d: ord %d fresh %v, want %d %v", pass, i, ord, fresh, add.ord, add.fresh)
			}
		}
		if s.Len() != 4 {
			t.Fatalf("Len = %d, want 4", s.Len())
		}
	}
}
