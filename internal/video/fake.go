package video

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"time"

	"privid/internal/geom"
	"privid/internal/vtime"
)

// FakeObject is one synthetic object's continuous visibility span in
// an IntervalSource: it exists on every frame of [Enter, Exit) with a
// fixed box, and nowhere else. Visibility is the whole behavioral
// surface Privid queries see, so a list of FakeObjects defines a
// stream whose every windowed aggregate is computable in closed form —
// the fake-source idiom the sim fleet's ground-truth invariant is
// built on (cf. the rdk fake-camera test doubles).
type FakeObject struct {
	ID          int
	Class       Class
	Enter, Exit int64 // visible on frames [Enter, Exit)
	Box         geom.Rect
}

// IntervalSource is a deterministic Source backed by interval-visible
// objects. The zero box is fine for executables that only count.
//
// The visible set only changes where an object enters or exits, so the
// source keeps one shared, read-only snapshot per such boundary rather
// than per frame: a 1000-camera fleet costs memory proportional to its
// event list (times the overlap depth), not its frame count, and only
// for the cameras a query has actually read — the snapshots are built
// on the first Frame call.
type IntervalSource struct {
	Camera string
	W, H   float64
	FPS    vtime.FrameRate
	Start  time.Time
	Frames int64
	// Objects may be in any order (Sort gives frames a canonical one)
	// and must not change after Sort or the first Frame call.
	Objects []FakeObject

	// maxSpan is the longest object span, recorded by Sort: no object
	// that enters more than maxSpan frames before a window can reach
	// into it.
	maxSpan int64

	once sync.Once
	// bounds holds every frame at which the visible set changes,
	// ascending; snaps[k] is the set on [bounds[k], bounds[k+1]), in
	// Objects order, and the last one is empty.
	bounds []int64
	snaps  [][]Observation
}

// Sort orders Objects by Enter and records the longest span, which
// bounds SparseIntervalSource.ActiveIntervals' scan. Constructors in
// internal/sim call it once after assembling Objects so that frames list
// objects by arrival.
func (s *IntervalSource) Sort() {
	sort.Slice(s.Objects, func(i, j int) bool { return s.Objects[i].Enter < s.Objects[j].Enter })
	s.maxSpan = 0
	for _, o := range s.Objects {
		s.maxSpan = max(s.maxSpan, o.Exit-o.Enter)
	}
}

// Info implements Source.
func (s *IntervalSource) Info() Info {
	return Info{Camera: s.Camera, W: s.W, H: s.H, FPS: s.FPS, Start: s.Start, Frames: s.Frames}
}

// snapBlock is the arena block snapshots are carved from, in
// observations: what a source with a handful of objects pays at least.
const snapBlock = 128

// index builds bounds and snaps with one sweep over the boundaries,
// keeping the visible objects' positions in Objects order.
func (s *IntervalSource) index() {
	var byEnter []int // positions in Objects of the objects ever visible
	for p, o := range s.Objects {
		if o.Enter < o.Exit { // zero-length and inverted spans never are
			s.bounds = append(s.bounds, o.Enter, o.Exit)
			byEnter = append(byEnter, p)
		}
	}
	slices.Sort(s.bounds)
	s.bounds = slices.Compact(s.bounds)
	slices.SortStableFunc(byEnter, func(a, b int) int {
		return cmp.Compare(s.Objects[a].Enter, s.Objects[b].Enter)
	})
	s.snaps = make([][]Observation, len(s.bounds))
	var visible []int
	var arena []Observation
	for k, b := range s.bounds {
		visible = slices.DeleteFunc(visible, func(p int) bool { return s.Objects[p].Exit <= b })
		for ; len(byEnter) > 0 && s.Objects[byEnter[0]].Enter == b; byEnter = byEnter[1:] {
			visible = append(visible, byEnter[0])
		}
		slices.Sort(visible)
		if len(visible) > cap(arena)-len(arena) {
			arena = make([]Observation, 0, max(snapBlock, len(visible)))
		}
		lo := len(arena)
		for _, p := range visible {
			o := s.Objects[p]
			arena = append(arena, Observation{EntityID: o.ID, Class: o.Class, Box: o.Box})
		}
		if len(arena) > lo {
			// Capacity-clipped: a consumer's append reallocates instead
			// of writing into the next snapshot.
			s.snaps[k] = arena[lo:len(arena):len(arena)]
		}
	}
}

// Frame implements Source: all objects whose span covers i, as a
// snapshot shared between every frame of the same boundary interval —
// read-only, like every Frame.Objects. It allocates nothing once the
// index is built.
func (s *IntervalSource) Frame(i int64) Frame {
	s.once.Do(s.index)
	k, found := slices.BinarySearch(s.bounds, i)
	if !found {
		k-- // the interval i falls in starts at the boundary before it
	}
	if k < 0 {
		return Frame{Index: i}
	}
	return Frame{Index: i, Objects: s.snaps[k]}
}

// SparseIntervalSource is an IntervalSource that additionally
// implements SparseSource, letting Split.AppendActiveChunks skip chunks
// in which nothing is ever visible. Use it only with executables whose
// output is empty on empty chunks — skipping must be invisible in
// query results (the cache-invisibility rule applies to sparse
// skipping too).
type SparseIntervalSource struct {
	IntervalSource
}

// ActiveIntervals implements SparseSource: the merged object spans
// clipped to iv. Sort must have run: the scan reads Objects in Enter
// order rather than the snapshot index, since enumerating a camera's
// chunks must not be what builds it. It starts at the first object that
// enters no more than the longest span before iv starts, found by
// binary search, since no earlier one can reach iv, and stops at the
// first object that enters at or after iv ends, since no later one can
// overlap iv.
func (s *SparseIntervalSource) ActiveIntervals(dst []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	base := len(dst)
	from, _ := slices.BinarySearchFunc(s.Objects, iv.Start-s.maxSpan, func(o FakeObject, f int64) int { return cmp.Compare(o.Enter, f) })
	for _, o := range s.Objects[from:] {
		if o.Enter >= iv.End {
			break
		}
		span := vtime.Interval{Start: o.Enter, End: o.Exit}.Intersect(iv)
		if span.Empty() {
			continue
		}
		if n := len(dst); n > base && span.Start <= dst[n-1].End {
			if span.End > dst[n-1].End {
				dst[n-1].End = span.End
			}
			continue
		}
		dst = append(dst, span)
	}
	return dst
}
