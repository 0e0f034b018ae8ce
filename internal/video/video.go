// Package video provides Privid's view of a camera stream: a Source of
// frames (each frame is the set of observations visible at that
// instant, in the object model this package owns), masked and
// region-cropped source decorators, and the temporal chunking of the
// SPLIT statement (§6.2).
package video

import (
	"fmt"
	"slices"
	"time"

	"privid/internal/geom"
	"privid/internal/vtime"
)

// Info describes a camera stream.
type Info struct {
	Camera string
	W, H   float64
	FPS    vtime.FrameRate
	Start  time.Time // wall-clock instant of frame 0
	Frames int64     // total stream length
}

// Clock returns the stream's wall-clock anchoring.
func (i Info) Clock() vtime.Clock { return vtime.Clock{Start: i.Start, Rate: i.FPS} }

// Bounds returns the stream's full frame interval.
func (i Info) Bounds() vtime.Interval { return vtime.NewInterval(0, i.Frames) }

// Frame is what the camera shows at one instant. Objects is owned by
// the Source that produced it and may be shared between frames handed
// to different consumers (decorators pass it through untouched when
// they filter nothing), so consumers must treat it as read-only.
type Frame struct {
	Index   int64
	Objects []Observation
}

// Class is the semantic class of an object in a frame.
type Class int

const (
	// Person is a pedestrian (a private object).
	Person Class = iota
	// Car is a motor vehicle (a private object; the paper protects
	// vehicles because they can identify their driver).
	Car
	// Bike is a bicycle (private).
	Bike
	// Boat is a watercraft (private; the Venice profiles use it).
	Boat
	// TrafficLight is a fixed signal head (not private).
	TrafficLight
	// Tree is fixed vegetation (not private).
	Tree
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Person:
		return "person"
	case Car:
		return "car"
	case Bike:
		return "bike"
	case Boat:
		return "boat"
	case TrafficLight:
		return "light"
	case Tree:
		return "tree"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Private reports whether the class identifies an individual and is
// therefore covered by the video owner's privacy goal (§5.2: all
// people and vehicles).
func (c Class) Private() bool {
	switch c {
	case Person, Car, Bike, Boat:
		return true
	default:
		return false
	}
}

// Observation is what the camera sees of one object in one frame.
type Observation struct {
	EntityID int
	Class    Class
	Box      geom.Rect
	Color    string
	Plate    string
	Speed    float64 // instantaneous ground speed, mph (vehicles)
	State    string  // scene-element state: "red"/"green", "leaves"/"bare"
}

// Source is a readable camera stream. Implementations must be safe for
// concurrent Frame calls (the engine may process chunks in parallel).
type Source interface {
	Info() Info
	Frame(i int64) Frame
}

// SparseSource is an optional Source extension that reports where
// activity exists, letting the engine skip provably-empty chunks. This
// is purely a simulation-speed optimization: an empty chunk produces no
// rows in every workload we ship, so skipping it cannot change query
// output. Sources with always-visible elements (lights, trees) must
// report the full range.
type SparseSource interface {
	Source
	// ActiveIntervals appends to dst the sorted, disjoint frame
	// intervals within iv outside of which no observation is visible,
	// and returns the extended slice. It must not read dst's existing
	// elements, and may merge only intervals it appended itself: the
	// engine passes a reused buffer (dst[:0]), so a warm enumeration
	// allocates nothing.
	ActiveIntervals(dst []vtime.Interval, iv vtime.Interval) []vtime.Interval
}

// Occluder decides whether an object at a given box survives a mask.
// The mask package provides the implementation; the indirection keeps
// video free of mask's dependencies.
type Occluder interface {
	// Visible reports whether an object occupying box remains
	// detectable once masked pixels are blacked out.
	Visible(box geom.Rect) bool
}

// Masked returns a source that drops observations hidden by the
// occluder. Privid applies masks to video before the analyst's
// executable sees it (§7.1), so masking lives at the Source layer.
//
// The decorator filters lazily: when no observation is hidden — the
// overwhelmingly common case for typical masks — the underlying
// frame's Objects slice is returned untouched (zero copies, zero
// allocations through an arbitrarily deep decorator chain). A copy is
// made only when at least one observation must actually be dropped.
// Frame.Objects must therefore be treated as read-only by consumers;
// see Frame.
func Masked(src Source, occ Occluder) Source {
	if occ == nil {
		return src
	}
	return &maskedSource{src: src, occ: occ}
}

type maskedSource struct {
	src Source
	occ Occluder
}

func (m *maskedSource) Info() Info { return m.src.Info() }

func (m *maskedSource) Frame(i int64) Frame {
	f := m.src.Frame(i)
	f.Objects = filterObjects(f.Objects, func(o *Observation) bool {
		return m.occ.Visible(o.Box)
	})
	return f
}

// filterObjects returns the observations satisfying keep. The input
// slice is returned untouched (shared, not copied) when every element
// survives; otherwise exactly one allocation of the surviving length
// is made. keep is called once per element.
func filterObjects(objs []Observation, keep func(*Observation) bool) []Observation {
	// Scan for the first casualty; until one is found there is nothing
	// to copy.
	drop := -1
	for i := range objs {
		if !keep(&objs[i]) {
			drop = i
			break
		}
	}
	if drop < 0 {
		return objs
	}
	out := make([]Observation, drop, len(objs)-1)
	copy(out, objs[:drop])
	for i := drop + 1; i < len(objs); i++ {
		if keep(&objs[i]) {
			out = append(out, objs[i])
		}
	}
	return out
}

func (m *maskedSource) ActiveIntervals(dst []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	return activeIntervals(m.src, dst, iv)
}

// activeIntervals asks src for its active intervals within iv when it
// is sparse, and otherwise reports all of iv.
func activeIntervals(src Source, dst []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	if ss, ok := src.(SparseSource); ok {
		return ss.ActiveIntervals(dst, iv)
	}
	return append(dst, iv)
}

// Cropped returns a source restricted to a spatial region: only
// observations whose box center lies inside the region remain. This
// implements the per-region view of spatial splitting (§7.2). Like
// Masked it filters lazily: frames in which nothing is cropped share
// the underlying Objects slice instead of copying it.
func Cropped(src Source, region geom.Rect) Source {
	return &croppedSource{src: src, region: region}
}

type croppedSource struct {
	src    Source
	region geom.Rect
}

func (c *croppedSource) Info() Info { return c.src.Info() }

func (c *croppedSource) Frame(i int64) Frame {
	f := c.src.Frame(i)
	f.Objects = filterObjects(f.Objects, func(o *Observation) bool {
		return c.region.Contains(o.Box.Center())
	})
	return f
}

func (c *croppedSource) ActiveIntervals(dst []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	return activeIntervals(c.src, dst, iv)
}

// Chunk is one temporal chunk handed to an instance of the analyst's
// processing executable. Frames are accessed lazily so large chunks
// need not be materialized.
type Chunk struct {
	Camera   string
	Ordinal  int64           // chunk index within the split
	Interval vtime.Interval  // frame range [Start, End)
	FPS      vtime.FrameRate // frame rate
	Start    time.Time       // wall-clock instant of the first frame
	Region   string          // region name when spatially split ("" otherwise)
	src      Source
}

// Len returns the number of frames in the chunk.
func (c *Chunk) Len() int64 { return c.Interval.Len() }

// Frame returns the k-th frame of the chunk (0-based).
func (c *Chunk) Frame(k int64) Frame {
	return c.src.Frame(c.Interval.Start + k)
}

// Seconds returns the chunk duration in seconds.
func (c *Chunk) Seconds() float64 { return c.FPS.Seconds(c.Len()) }

// Split is the chunking plan of a SPLIT statement: window [Interval)
// divided into chunks of ChunkFrames frames separated by StrideFrames
// frames (stride 0 means contiguous; negative strides overlap).
type Split struct {
	Source       Source
	Interval     vtime.Interval
	ChunkFrames  int64
	StrideFrames int64
	Region       string
}

// period returns the frame distance between consecutive chunk starts.
func (s Split) period() int64 {
	p := s.ChunkFrames + s.StrideFrames
	if p < 1 {
		p = 1
	}
	return p
}

// NumChunks returns the number of chunks in the plan.
func (s Split) NumChunks() int64 {
	if s.ChunkFrames <= 0 || s.Interval.Empty() {
		return 0
	}
	span := s.Interval.Len()
	p := s.period()
	// Chunks start at Interval.Start + i*p while the start is within
	// the window.
	return (span + p - 1) / p
}

// IntervalAt returns the frame interval of the i-th chunk of the plan
// — pure arithmetic, for callers (the engine's warm cache path) that
// need a chunk's identity but not its frames. The final chunk is
// clipped to the window.
func (s Split) IntervalAt(i int64) vtime.Interval {
	start := s.Interval.Start + i*s.period()
	end := start + s.ChunkFrames
	if end > s.Interval.End {
		end = s.Interval.End
	}
	return vtime.NewInterval(start, end)
}

// ChunkAt returns the i-th chunk of the plan, covering IntervalAt(i).
func (s Split) ChunkAt(i int64) *Chunk {
	iv := s.IntervalAt(i)
	info := s.Source.Info()
	return &Chunk{
		Camera:   info.Camera,
		Ordinal:  i,
		Interval: iv,
		FPS:      info.FPS,
		Start:    info.Clock().TimeOf(iv.Start),
		Region:   s.Region,
		src:      s.Source,
	}
}

// ActiveChunks returns the ordinals of chunks that can contain
// observations. When the source is sparse it skips empty chunks;
// otherwise it returns every ordinal.
func (s Split) ActiveChunks() []int64 { return s.AppendActiveChunks(nil, nil) }

// AppendActiveChunks appends ActiveChunks' ordinals to dst and returns
// the extended slice. A sparse source lists its active intervals into
// *ivs (reset first; the grown buffer is left there for the next call),
// or into a buffer of its own when ivs is nil.
func (s Split) AppendActiveChunks(dst []int64, ivs *[]vtime.Interval) []int64 {
	n := s.NumChunks()
	ss, ok := s.Source.(SparseSource)
	if !ok {
		dst = slices.Grow(dst, int(n))
		for i := int64(0); i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	var buf []vtime.Interval
	if ivs != nil {
		buf = (*ivs)[:0]
	}
	buf = ss.ActiveIntervals(buf, s.Interval)
	if ivs != nil {
		*ivs = buf
	}
	p := s.period()
	last := int64(-1)
	for _, iv := range buf {
		iv = iv.Intersect(s.Interval)
		if iv.Empty() {
			continue
		}
		// Chunk i covers [Start+i*p, Start+i*p+ChunkFrames). It
		// overlaps iv iff i*p < iv.End-Start and i*p+ChunkFrames >
		// iv.Start-Start.
		lo := (iv.Start - s.Interval.Start - s.ChunkFrames + 1 + p - 1) / p // ceil
		if lo*p+s.ChunkFrames <= iv.Start-s.Interval.Start {
			lo++
		}
		if lo < 0 {
			lo = 0
		}
		hi := (iv.End - s.Interval.Start - 1) / p
		if hi >= n {
			hi = n - 1
		}
		for i := max(lo, last+1); i <= hi; i++ {
			dst = append(dst, i)
			last = i
		}
	}
	return dst
}
