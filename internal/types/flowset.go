package types

// PathInterner assigns dense ids to distinct paths in first-appearance
// order. A lookup assembles the path's byte key (the Path.Key encoding)
// in a scratch buffer reused across calls and probes with the compiler's
// allocation-free m[string(buf)] form, so a key is only materialised as
// a string the first time its path is seen: allocations are O(distinct
// paths), not O(lookups). The zero value is ready to use.
type PathInterner struct {
	ids map[string]uint32
	key []byte
}

// Intern returns p's id and whether this call assigned it.
func (in *PathInterner) Intern(p Path) (id uint32, fresh bool) {
	k := in.key[:0]
	for _, s := range p {
		k = append(k, byte(s>>8), byte(s))
	}
	in.key = k
	if id, ok := in.ids[string(k)]; ok {
		return id, false
	}
	if in.ids == nil {
		in.ids = make(map[string]uint32)
	}
	id = uint32(len(in.ids))
	in.ids[string(k)] = id
	return id, true
}

// Reset forgets every path, keeping the map's buckets and the key
// scratch for the next use.
func (in *PathInterner) Reset() { clear(in.ids) }

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
