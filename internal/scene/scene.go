// Package scene implements Privid's synthetic video substrate: a
// deterministic simulator of what a fixed public camera sees over time.
//
// The paper evaluates on three 12-hour YouTube streams (campus, highway,
// urban) plus seven videos from BlazeIt and MIRIS. None of Privid's
// mechanisms consume pixels — they consume *object visibility over
// time* — so this package models a scene as a set of entities (people,
// cars, ...) with timed appearances and continuous trajectories, plus
// static scene elements (traffic lights, trees) that some queries read.
// Profiles in profiles.go reproduce the statistical properties the
// evaluation depends on: diurnal arrival rates, heavy-tailed dwell
// times, spatially-concentrated lingerers, and multi-appearance
// entities (K > 1).
package scene

import (
	"sort"
	"time"

	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Side identifies a frame edge; Q13 filters entities by the edges they
// enter and exit through.
type Side int

const (
	// SideNone marks trajectories that start or end inside the frame.
	SideNone Side = iota
	// SideNorth is the top edge of the frame.
	SideNorth
	// SideSouth is the bottom edge.
	SideSouth
	// SideEast is the right edge.
	SideEast
	// SideWest is the left edge.
	SideWest
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case SideNorth:
		return "north"
	case SideSouth:
		return "south"
	case SideEast:
		return "east"
	case SideWest:
		return "west"
	default:
		return "none"
	}
}

// Appearance is one contiguous visible interval of an entity:
// frames [Enter, Exit) with a continuous trajectory. An entity with
// multiple appearances corresponds to the paper's K > 1 events (e.g.
// individual x visible 30 s entering a building and 10 s leaving).
type Appearance struct {
	Enter, Exit int64 // frame indices, half-open
	Traj        *Path
}

// Interval returns the appearance's frame interval.
func (a Appearance) Interval() vtime.Interval {
	return vtime.NewInterval(a.Enter, a.Exit)
}

// Entity is one distinct private object observed by the camera.
type Entity struct {
	ID          int
	Class       video.Class
	Color       string // vehicle color, e.g. "RED" (empty for people)
	Plate       string // unique license plate (vehicles only)
	EnterSide   Side   // edge the entity first enters through
	ExitSide    Side   // edge the entity finally exits through
	Appearances []Appearance
}

// Light is a traffic signal with a fixed red/green cycle.
type Light struct {
	Box      geom.Rect
	RedSec   float64 // red phase duration, seconds
	GreenSec float64 // green phase duration, seconds
	PhaseSec float64 // offset of the cycle at frame 0, seconds
}

// StateAt returns "red" or "green" at the given frame.
func (l Light) StateAt(frame int64, fps vtime.FrameRate) string {
	cycle := l.RedSec + l.GreenSec
	if cycle <= 0 {
		return "red"
	}
	t := float64(frame)/float64(fps) + l.PhaseSec
	pos := t - float64(int64(t/cycle))*cycle
	if pos < 0 {
		pos += cycle
	}
	if pos < l.RedSec {
		return "red"
	}
	return "green"
}

// TreeSpec is a fixed tree; Leaves reports whether it has bloomed
// (Q7–Q9 measure the bloomed fraction).
type TreeSpec struct {
	Box    geom.Rect
	Leaves bool
}

// Scene is the full ground-truth world observed by one camera.
type Scene struct {
	Name   string
	W, H   float64         // frame dimensions, pixels
	FPS    vtime.FrameRate // frame rate
	Start  time.Time       // wall-clock instant of frame 0
	Frames int64           // total length in frames
	Ents   []*Entity
	Lights []Light
	Trees  []TreeSpec

	// bucketed index of appearances for fast per-frame queries
	bucketLen int64
	buckets   [][]appRef
}

type appRef struct {
	ent *Entity
	app int
}

// Bounds returns the full frame interval of the scene.
func (s *Scene) Bounds() vtime.Interval { return vtime.NewInterval(0, s.Frames) }

// BuildIndex (re)builds the time-bucketed appearance index. Generate
// calls it automatically; call it again after mutating Ents.
func (s *Scene) BuildIndex() {
	const targetBuckets = 2048
	s.bucketLen = s.Frames/targetBuckets + 1
	n := int(s.Frames/s.bucketLen) + 1
	s.buckets = make([][]appRef, n)
	for _, e := range s.Ents {
		for i, a := range e.Appearances {
			b0 := a.Enter / s.bucketLen
			b1 := (a.Exit - 1) / s.bucketLen
			if b0 < 0 {
				b0 = 0
			}
			for b := b0; b <= b1 && b < int64(n); b++ {
				s.buckets[b] = append(s.buckets[b], appRef{e, i})
			}
		}
	}
}

// At returns every observation visible at the given frame: private
// entities currently on screen plus static scene elements (lights with
// their current state, trees). Results are ordered by entity ID with
// scene elements last, so output is deterministic.
func (s *Scene) At(frame int64) []video.Observation {
	var out []video.Observation
	if frame >= 0 && frame < s.Frames && s.buckets != nil {
		b := frame / s.bucketLen
		if b < int64(len(s.buckets)) {
			for _, ref := range s.buckets[b] {
				a := ref.ent.Appearances[ref.app]
				if frame < a.Enter || frame >= a.Exit {
					continue
				}
				box := a.Traj.Box(frame)
				out = append(out, video.Observation{
					EntityID: ref.ent.ID,
					Class:    ref.ent.Class,
					Box:      box,
					Color:    ref.ent.Color,
					Plate:    ref.ent.Plate,
					Speed:    a.Traj.Speed(frame, s.FPS),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EntityID < out[j].EntityID })
	for _, l := range s.Lights {
		out = append(out, video.Observation{
			EntityID: -1,
			Class:    video.TrafficLight,
			Box:      l.Box,
			State:    l.StateAt(frame, s.FPS),
		})
	}
	for _, tr := range s.Trees {
		state := "bare"
		if tr.Leaves {
			state = "leaves"
		}
		out = append(out, video.Observation{
			EntityID: -1,
			Class:    video.Tree,
			Box:      tr.Box,
			State:    state,
		})
	}
	return out
}

// Source returns the scene as the named camera's stream: frame i shows
// At(i).
func (s *Scene) Source(camera string) video.Source {
	return &source{camera: camera, s: s}
}

type source struct {
	camera string
	s      *Scene
}

func (src *source) Info() video.Info {
	s := src.s
	return video.Info{Camera: src.camera, W: s.W, H: s.H, FPS: s.FPS, Start: s.Start, Frames: s.Frames}
}

func (src *source) Frame(i int64) video.Frame {
	return video.Frame{Index: i, Objects: src.s.At(i)}
}

// MaxDurationSeconds returns the ground-truth maximum single-appearance
// duration over all private entities in [iv], in seconds — the "Ground
// Truth" column of Table 1. Appearances are clipped to the interval.
func (s *Scene) MaxDurationSeconds(iv vtime.Interval) float64 {
	var m int64
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for _, a := range e.Appearances {
			if l := a.Interval().Intersect(iv).Len(); l > m {
				m = l
			}
		}
	}
	return s.FPS.Seconds(m)
}

// CollectPresence samples every stride-th frame of each private
// appearance in s within iv and records the grid cells its box
// intersects. stride trades resolution for speed; persistence values
// derived from the result are in units of sampled frames.
func CollectPresence(s *Scene, grid geom.Grid, iv vtime.Interval, stride int64) []mask.TrackPresence {
	if stride < 1 {
		stride = 1
	}
	var out []mask.TrackPresence
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for ai, a := range e.Appearances {
			clip := a.Interval().Intersect(iv)
			if clip.Empty() {
				continue
			}
			tp := mask.TrackPresence{EntityID: e.ID, Appearance: ai}
			for f := clip.Start; f < clip.End; f += stride {
				fp := mask.FramePresence{Frame: f}
				for c := range grid.Cells(a.Traj.Box(f)) {
					fp.Cells = append(fp.Cells, int32(grid.Index(c)))
				}
				if len(fp.Cells) > 0 {
					tp.Frames = append(tp.Frames, fp)
				}
			}
			if len(tp.Frames) > 0 {
				out = append(out, tp)
			}
		}
	}
	return out
}

// PersistenceUnderMask evaluates, for every private appearance in s
// within iv, how many sampled frames remain visible under mask m using
// the area-based visibility rule (the same rule the engine's masked
// sources apply). A nil mask hides nothing. The result backs the
// Fig. 4 persistence histograms.
func PersistenceUnderMask(s *Scene, m *mask.Mask, iv vtime.Interval, stride int64) []mask.PersistenceStat {
	if stride < 1 {
		stride = 1
	}
	var out []mask.PersistenceStat
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for ai, a := range e.Appearances {
			clip := a.Interval().Intersect(iv)
			if clip.Empty() {
				continue
			}
			st := mask.PersistenceStat{EntityID: e.ID, Appearance: ai}
			for f := clip.Start; f < clip.End; f += stride {
				st.TotalFrames++
				if m == nil || m.Visible(a.Traj.Box(f)) {
					st.VisibleFrames++
				}
			}
			out = append(out, st)
		}
	}
	return out
}
