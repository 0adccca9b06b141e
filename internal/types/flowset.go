package types

// PathInterner assigns dense ids to distinct paths in first-appearance
// order. A lookup assembles the path's byte key (the Path.Key encoding)
// in a scratch buffer reused across calls and probes with the compiler's
// allocation-free m[string(buf)] form, so a key is only materialised as
// a string the first time its path is seen: allocations are O(distinct
// paths), not O(lookups). Keys outlive Reset — an entry records which
// generation numbered it — so an interner that meets the same paths use
// after use (a pooled staging sealing one host's segments) stops
// allocating altogether. The zero value is ready to use.
type PathInterner struct {
	slots  map[string]uint32 // key → its entry in stamps
	stamps []pathStamp
	gen    uint64 // Resets so far
	n      uint32 // ids handed out this generation
	key    []byte
}

// pathStamp is a kept key's id in the generation that last interned it;
// it is stamped gen+1, so the zero value belongs to no generation.
type pathStamp struct {
	gen uint64
	id  uint32
}

// internerKeep bounds the keys a PathInterner carries across Reset: one
// that has met more distinct paths than this really forgets them.
const internerKeep = 1024

// Intern returns p's id and whether this call assigned it.
func (in *PathInterner) Intern(p Path) (id uint32, fresh bool) {
	k := in.key[:0]
	for _, s := range p {
		k = append(k, byte(s>>8), byte(s))
	}
	in.key = k
	si, ok := in.slots[string(k)]
	if !ok {
		if in.slots == nil {
			in.slots = make(map[string]uint32)
		}
		si = uint32(len(in.stamps))
		in.slots[string(k)] = si
		in.stamps = append(in.stamps, pathStamp{})
	}
	st := &in.stamps[si]
	if st.gen == in.gen+1 {
		return st.id, false
	}
	st.gen, st.id = in.gen+1, in.n
	in.n++
	return st.id, true
}

// Reset forgets every id, keeping the key scratch, the map's buckets
// and — up to internerKeep of them — its keys for the next use.
func (in *PathInterner) Reset() {
	in.gen, in.n = in.gen+1, 0
	if len(in.stamps) > internerKeep {
		clear(in.slots)
		in.stamps = in.stamps[:0]
	}
}

// FlowSet is a set of ⟨flowID, path⟩ pairs — the dedup behind getFlows
// and getPaths and every query built on them — that numbers its members
// in first-appearance order. Members are keyed by (FlowID, interned path
// id), so adding costs no allocation once a pair's path has been seen.
// The zero value is ready to use.
type FlowSet struct {
	paths PathInterner
	idx   map[flowKey]int32
	// first is the sole member, held inline, until a second distinct
	// pair arrives: a set that never sees one (a single just-exported
	// record under an event-triggered query) touches neither the map nor
	// the interner, and so allocates nothing.
	first Flow
	n     int32
}

type flowKey struct {
	id   FlowID
	path uint32
}

// Add inserts the pair and returns its ordinal (0 for the first distinct
// pair added, 1 for the second, …) and whether it was new.
func (s *FlowSet) Add(id FlowID, p Path) (ord int, fresh bool) {
	if s.n == 0 {
		s.first, s.n = Flow{ID: id, Path: p}, 1
		return 0, true
	}
	if s.n == 1 && len(s.idx) == 0 { // the sole member is still inline
		if s.first.ID == id && s.first.Path.Equal(p) {
			return 0, false
		}
		if s.idx == nil {
			s.idx = make(map[flowKey]int32)
		}
		pid, _ := s.paths.Intern(s.first.Path)
		s.idx[flowKey{s.first.ID, pid}] = 0
	}
	pid, _ := s.paths.Intern(p)
	k := flowKey{id, pid}
	if i, ok := s.idx[k]; ok {
		return int(i), false
	}
	s.idx[k] = s.n
	s.n++
	return int(s.n - 1), true
}

// Len returns the number of distinct pairs added.
func (s *FlowSet) Len() int { return int(s.n) }

// Reset empties the set, keeping its maps' buckets for the next use and
// dropping the reference to the first member's path.
func (s *FlowSet) Reset() {
	s.paths.Reset()
	clear(s.idx)
	s.first, s.n = Flow{}, 0
}
