package obs

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed segment of a query's lifecycle. Spans form a tree
// (per-shard PROCESS spans under their PROCESS span, stages under the
// root) and carry numeric/string attributes — counts, durations, ε
// amounts and identifiers only, never released values or row contents.
//
// Spans are safe for concurrent use (parallel shards annotate sibling
// spans) and every method is safe on a nil receiver, so untraced
// executions thread a nil span through the same call sites for free.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    []attr // sorted by key
	children []*Span
	clock    func() time.Time
}

func (s *Span) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// Child starts a child span. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, clock: s.clock}
	c.start = c.now()
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildSpanning attaches an already-measured child span (e.g. the
// parse stage, timed before the trace existed).
func (s *Span) ChildSpanning(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, end: start.Add(d), clock: s.clock}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished. Idempotent; later calls keep the first
// end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.now()
	}
	s.mu.Unlock()
}

// Set stores an attribute: a string, or a number given as an int or a
// float64 (anything else panics — a programming error at the call site).
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	a := attr{key: key}
	switch v := v.(type) {
	case string:
		a.str, a.isStr = v, true
	case int:
		a.num = float64(v)
	case float64:
		a.num = v
	default:
		panic("obs: span attribute must be a string, int or float64")
	}
	s.mu.Lock()
	*s.attrLocked(key) = a
	s.mu.Unlock()
}

// Add accumulates a numeric attribute (creating it at delta). Used by
// concurrent chunk workers to tally cache hits and sandbox time on
// their shard's span.
func (s *Span) Add(key string, delta float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	a := s.attrLocked(key)
	if a.isStr {
		*a = attr{key: key}
	}
	a.num += delta
	s.mu.Unlock()
}

// attr is one span attribute, typed so that storing it boxes nothing
// and rendering it needs no reflection.
type attr struct {
	key, str string
	num      float64
	isStr    bool
}

// attrLocked returns key's slot, inserting it if absent, in key order
// (encoding/json's map order). The first insert sizes the slice for as
// many attributes as a span of this name has held. Caller holds s.mu.
func (s *Span) attrLocked(key string) *attr {
	i, found := slices.BinarySearchFunc(s.attrs, key, func(a attr, k string) int { return strings.Compare(a.key, k) })
	if !found {
		if n := len(s.attrs); n == cap(s.attrs) {
			s.attrs = slices.Grow(s.attrs, attrHint(s.name, n+1)-n)
		}
		s.attrs = slices.Insert(s.attrs, i, attr{key: key})
	}
	return &s.attrs[i]
}

// attrHints maps each span name, a constant at every call site, to the
// most attributes a span of that name has held. It only sizes slices.
var attrHints, attrHintsMu = map[string]int{}, sync.Mutex{}

// attrHint raises name's hint to at least n and returns it.
func attrHint(name string, n int) int {
	attrHintsMu.Lock()
	defer attrHintsMu.Unlock()
	attrHints[name] = max(n, attrHints[name])
	return attrHints[name]
}

// SpanTree is the serialized form of a span: the wire format of
// GET /v1/queries/{id}/trace. Durations are nanoseconds.
type SpanTree struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanTree     `json:"children,omitempty"`
}

// Tree snapshots the span and its descendants. Safe on a nil receiver
// (returns a zero tree).
func (s *Span) Tree() SpanTree {
	if s == nil {
		return SpanTree{}
	}
	s.mu.Lock()
	t := SpanTree{Name: s.name, Start: s.start}
	if !s.end.IsZero() {
		t.DurationNS = s.end.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		t.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			t.Attrs[a.key] = a.num
			if a.isStr {
				t.Attrs[a.key] = a.str
			}
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		t.Children = append(t.Children, c.Tree())
	}
	return t
}

// StageDurations flattens the tree into name → total duration, summing
// spans that share a name (the slow-query log's compact stage
// breakdown).
func (t SpanTree) StageDurations() map[string]time.Duration {
	out := map[string]time.Duration{}
	var walk func(n SpanTree)
	walk = func(n SpanTree) {
		out[n.Name] += time.Duration(n.DurationNS)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range t.Children {
		walk(c)
	}
	return out
}

// Trace is the root of one query's span tree.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span is named name. clock
// overrides time.Now (tests); nil uses the real clock.
func NewTrace(name string, clock func() time.Time) *Trace {
	r := &Span{name: name, clock: clock}
	r.start = r.now()
	return &Trace{root: r}
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t != nil {
		t.root.End()
	}
}

// Tree snapshots the whole trace.
func (t *Trace) Tree() SpanTree {
	if t == nil {
		return SpanTree{}
	}
	return t.root.Tree()
}

// JSON renders the span tree (nil on a nil trace): the bytes, and the
// errors, of json.Marshal(t.Tree()), appended straight from the spans.
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return nil, nil
	}
	b, err := t.root.appendJSON(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// appendJSON appends the span's SpanTree encoding to b.
func (s *Span) appendJSON(b []byte) ([]byte, error) {
	s.mu.Lock()
	b = AppendJSONString(append(b, `{"name":`...), s.name)
	b, err := AppendJSONTime(append(b, `,"start":`...), s.start)
	var d int64
	if !s.end.IsZero() {
		d = s.end.Sub(s.start).Nanoseconds()
	}
	b = strconv.AppendInt(append(b, `,"duration_ns":`...), d, 10)
	key := `,"attrs":{`
	for _, a := range s.attrs {
		b = append(AppendJSONString(append(b, key...), a.key), ':')
		key = ","
		if a.isStr {
			b = AppendJSONString(b, a.str)
		} else if err == nil {
			b, err = AppendJSONFloat(b, a.num)
		}
	}
	if len(s.attrs) > 0 {
		b = append(b, '}')
	}
	children := s.children // only ever appended to: this prefix stays valid
	s.mu.Unlock()
	key = `,"children":[`
	for i := 0; i < len(children) && err == nil; i++ {
		b, err = children[i].appendJSON(append(b, key...))
		key = ","
	}
	if len(children) > 0 {
		b = append(b, ']')
	}
	return append(b, '}'), err // on error JSON discards b
}
