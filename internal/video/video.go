// Package video provides Privid's view of a camera stream: a Source of
// frames (each frame is the set of ground-truth observations visible at
// that instant), masked and region-cropped source decorators, and the
// temporal chunking of the SPLIT statement (§6.2).
package video

import (
	"time"

	"privid/internal/geom"
	"privid/internal/scene"
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
	Objects []scene.Observation
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
	// ActiveIntervals returns sorted, disjoint frame intervals within
	// iv outside of which no observation is visible.
	ActiveIntervals(iv vtime.Interval) []vtime.Interval
}

// SceneSource adapts a synthetic scene to the Source interface.
type SceneSource struct {
	Camera string
	Scene  *scene.Scene
}

// Info implements Source.
func (s *SceneSource) Info() Info {
	return Info{
		Camera: s.Camera,
		W:      s.Scene.W,
		H:      s.Scene.H,
		FPS:    s.Scene.FPS,
		Start:  s.Scene.Start,
		Frames: s.Scene.Frames,
	}
}

// Frame implements Source.
func (s *SceneSource) Frame(i int64) Frame {
	return Frame{Index: i, Objects: s.Scene.At(i)}
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
	f.Objects = filterObjects(f.Objects, func(o *scene.Observation) bool {
		return m.occ.Visible(o.Box)
	})
	return f
}

// filterObjects returns the observations satisfying keep. The input
// slice is returned untouched (shared, not copied) when every element
// survives; otherwise exactly one allocation of the surviving length
// is made. keep is called once per element.
func filterObjects(objs []scene.Observation, keep func(*scene.Observation) bool) []scene.Observation {
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
	out := make([]scene.Observation, drop, len(objs)-1)
	copy(out, objs[:drop])
	for i := drop + 1; i < len(objs); i++ {
		if keep(&objs[i]) {
			out = append(out, objs[i])
		}
	}
	return out
}

func (m *maskedSource) ActiveIntervals(iv vtime.Interval) []vtime.Interval {
	if ss, ok := m.src.(SparseSource); ok {
		return ss.ActiveIntervals(iv)
	}
	return []vtime.Interval{iv}
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
	f.Objects = filterObjects(f.Objects, func(o *scene.Observation) bool {
		return c.region.Contains(o.Box.Center())
	})
	return f
}

func (c *croppedSource) ActiveIntervals(iv vtime.Interval) []vtime.Interval {
	if ss, ok := c.src.(SparseSource); ok {
		return ss.ActiveIntervals(iv)
	}
	return []vtime.Interval{iv}
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
func (s Split) ActiveChunks() []int64 {
	n := s.NumChunks()
	ss, ok := s.Source.(SparseSource)
	if !ok {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	p := s.period()
	var out []int64
	last := int64(-1)
	for _, iv := range ss.ActiveIntervals(s.Interval) {
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
		for i := lo; i <= hi; i++ {
			if i > last {
				out = append(out, i)
				last = i
			}
		}
	}
	return out
}
