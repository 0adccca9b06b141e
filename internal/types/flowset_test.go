package types

import "testing"

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
