package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathdump/internal/types"
)

// NewTraceID mints a 16-hex-character random trace identifier. IDs
// are minted by the controller once per Execute* call and ride the
// execution's context (ContextWithTrace) and its root span.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID
		// still traces correctly, it just isn't unique.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

type traceKey struct{}

// ContextWithTrace returns a context carrying the trace ID, for
// propagation through transports that only see a context.
func ContextWithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFromContext extracts the trace ID placed by ContextWithTrace,
// or "" when the context is untraced.
func TraceFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// Attr is one key/value annotation on a Span, as JSON carries it.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// attr is an annotation as a span holds it: the value keeps its type and
// is formatted only when somebody looks (Render, MarshalJSON, Attr).
type attr struct {
	key  string
	str  string
	num  int64 // attrInt's value, attrHost's ID
	kind uint8
}

const (
	attrString = iota
	attrInt
	attrHost
)

func (a *attr) value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrHost:
		return types.HostID(a.num).String()
	}
	return a.str
}

// Span is one timed stage of a traced query: the fan-out wave, a
// per-host RPC, a TIB scan, a streaming merge. Spans form a tree, marshal
// to JSON (name/start/dur/attrs/children) for /slowlog and pathdumpctl
// -trace, and are safe for concurrent mutation (hedged requests and
// parallel fan-out touch siblings from many goroutines).
// Every method is nil-safe: an untraced call site passes a nil parent
// and the whole subtree melts away.
//
// The spans of one trace are carved from chunks its root owns (trace):
// starting one costs no allocation of its own, its children are an
// intrusive list, and its first attributes sit inline. A span is made by
// NewSpan, StartChild or json.Unmarshal, never as a literal. Name, Start
// and Dur may be read directly once the traced work has returned.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration

	tr          *trace           // owns the span; its lock guards everything below
	child, next *Span            // newest child; next links s into its parent's list
	derive      func(into *Span) // builds further children on read (Derive)
	n           uint8            // attributes held inline
	inline      [3]attr
	more        []attr // the fourth attribute onwards
}

// trace is the arena and the lock shared by the spans of one tree. Chunks
// are plain garbage-collected memory, reachable from the spans carved out
// of them: whoever keeps a span (ExecStats.Trace, the slow-query ring)
// keeps its tree, and nothing outlives the last reference.
type trace struct {
	mu    sync.Mutex
	free  []Span    // unused tail of the newest chunk
	chunk int       // its size: 8 spans, doubling to 64
	at    time.Time // a derived tree's clock (Derive); zero on a live one
}

func (t *trace) carve(name string, start time.Time) *Span {
	if len(t.free) == 0 {
		t.chunk = min(max(8, 2*t.chunk), 64)
		t.free = make([]Span, t.chunk)
	}
	s := &t.free[0]
	t.free = t.free[1:]
	s.Name, s.Start, s.tr = name, start, t
	return s
}

// NewSpan starts a root span named name.
func NewSpan(name string) *Span { return newRoot(name, time.Now(), time.Time{}) }

// newRoot starts a root span on a trace of its own, whose clock is at
// (zero: the wall clock).
func newRoot(name string, start, at time.Time) *Span {
	root := &struct {
		Span
		trace
	}{}
	root.Name, root.Start, root.tr, root.at = name, start, &root.trace, at
	return &root.Span
}

// StartChild starts and attaches a child span; it returns nil when s
// is nil so untraced paths stay branch-free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := s.tr.at
	if now.IsZero() {
		now = time.Now()
	}
	s.tr.mu.Lock()
	c := s.tr.carve(name, now)
	c.next, s.child = s.child, c
	s.tr.mu.Unlock()
	return c
}

// AddChild attaches an already-built span (the root of its own trace,
// such as one decoded from JSON) under s. Under a derived span (Derive)
// it attaches a copy: c may be shared with other readers, and linking c
// itself would write to it.
func (s *Span) AddChild(c *Span) {
	if s == nil || c == nil {
		return
	}
	if !s.tr.at.IsZero() {
		c.tr.mu.Lock()
		cp := *c
		c.tr.mu.Unlock()
		c = &cp
	}
	s.tr.mu.Lock()
	c.next, s.child = s.child, c
	s.tr.mu.Unlock()
}

// Derive hangs a read-time hook on s: every Render, MarshalJSON and
// Children of s calls build on a fresh span of a private trace and lists
// the children build started or attached there after s's own. Those
// spans start at s's end and last no time unless SetDur stamps them
// (Finish leaves them alone), so a tree whose per-host spans hold nothing
// but what the caller keeps anyway is built only when somebody looks.
// build runs outside s's lock, once per read and possibly from several
// readers at once: it may only read what is final by the time s is, and
// write nothing but into's subtree.
func (s *Span) Derive(build func(into *Span)) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.derive = build
	s.tr.mu.Unlock()
}

// Finish stamps the span's duration; calling it again is a no-op so
// deferred and explicit finishes can coexist.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Dur == 0 && s.tr.at.IsZero() {
		s.Dur = time.Since(s.Start)
	}
	s.tr.mu.Unlock()
}

// SetDur stamps the span with a duration measured elsewhere — an agent's
// scan, timed at the host — in place of Finish's time since Start. Unlike
// Finish it also stamps a span of a derived tree (Derive).
func (s *Span) SetDur(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Dur = d
	s.tr.mu.Unlock()
}

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if int(s.n) < len(s.inline) {
		s.inline[s.n] = a
		s.n++
	} else {
		if s.more == nil {
			s.more = make([]attr, 0, 4)
		}
		s.more = append(s.more, a)
	}
	s.tr.mu.Unlock()
}

// SetAttr annotates the span with a string value.
func (s *Span) SetAttr(key, value string) { s.set(attr{key: key, str: value}) }

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) { s.set(attr{key: key, num: value, kind: attrInt}) }

// SetHost annotates the span with a host, shown as the host prints (h5).
func (s *Span) SetHost(key string, h types.HostID) {
	s.set(attr{key: key, num: int64(h), kind: attrHost})
}

// spanJSON is a Span as JSON carries it and as its readers see it: one
// level of the tree, values formatted. Children marshal and unmarshal
// through the Span methods below.
type spanJSON struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Children []*Span       `json:"children,omitempty"`
}

// snapshot copies the span out from under its trace's lock, derived
// children included; each child is locked in turn by whoever descends
// into it.
func (s *Span) snapshot() spanJSON {
	s.tr.mu.Lock()
	j := spanJSON{Name: s.Name, Start: s.Start, Dur: s.Dur}
	for i := range s.inline[:s.n] {
		j.Attrs = append(j.Attrs, Attr{s.inline[i].key, s.inline[i].value()})
	}
	for i := range s.more {
		j.Attrs = append(j.Attrs, Attr{s.more[i].key, s.more[i].value()})
	}
	for c := s.child; c != nil; c = c.next {
		j.Children = append(j.Children, c)
	}
	derive := s.derive
	s.tr.mu.Unlock()
	slices.Reverse(j.Children) // the list runs newest first
	if derive != nil {
		into := newRoot(j.Name, j.Start, j.Start.Add(j.Dur))
		derive(into)
		own := len(j.Children)
		for c := into.child; c != nil; c = c.next {
			j.Children = append(j.Children, c)
		}
		slices.Reverse(j.Children[own:])
	}
	return j
}

// Attr returns the value of the first attribute named key, or "".
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.inline[:s.n] {
		if s.inline[i].key == key {
			return s.inline[i].value()
		}
	}
	for i := range s.more {
		if s.more[i].key == key {
			return s.more[i].value()
		}
	}
	return ""
}

// Children iterates over the span's children in the order they were
// attached: for i, c := range s.Children.
func (s *Span) Children(yield func(int, *Span) bool) {
	if s == nil {
		return
	}
	for i, c := range s.snapshot().Children {
		if !yield(i, c) {
			return
		}
	}
}

// MarshalJSON implements json.Marshaler.
func (s *Span) MarshalJSON() ([]byte, error) { return json.Marshal(s.snapshot()) }

// UnmarshalJSON implements json.Unmarshaler; s becomes the root of the
// decoded tree's own trace.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Span{Name: j.Name, Start: j.Start, Dur: j.Dur, tr: new(trace)}
	for _, a := range j.Attrs {
		s.SetAttr(a.Key, a.Value)
	}
	for _, c := range j.Children {
		s.AddChild(c)
	}
	return nil
}

// Render prints the span tree as an indented text outline — one line
// per span with its duration and attributes, children ordered by
// start time — the format pathdumpctl -trace shows operators.
func (s *Span) Render() string {
	var b strings.Builder
	if s != nil {
		s.render(&b, "")
	}
	return b.String()
}

func (s *Span) render(b *strings.Builder, indent string) {
	j := s.snapshot()
	b.WriteString(indent + j.Name)
	for _, a := range j.Attrs {
		b.WriteString(" " + a.Key + "=" + a.Value)
	}
	b.WriteString(" " + j.Dur.Round(time.Microsecond).String() + "\n")
	sort.SliceStable(j.Children, func(i, k int) bool { return j.Children[i].Start.Before(j.Children[k].Start) })
	for _, c := range j.Children {
		c.render(b, indent+"  ")
	}
}
