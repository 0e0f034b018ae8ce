package mask

import (
	"privid/internal/geom"
	"privid/internal/scene"
	"privid/internal/vtime"
)

// FramePresence records which grid cells one track's box intersects at
// one sampled frame.
type FramePresence struct {
	Frame int64
	Cells []int32 // linear cell indices
}

// TrackPresence is one ground-truth appearance reduced to its sampled
// per-frame cell occupancy — the input representation of Algorithm 2.
type TrackPresence struct {
	EntityID   int
	Appearance int
	Frames     []FramePresence
}

// CollectPresence samples every stride-th frame of each private
// appearance in s within iv and records the grid cells its box
// intersects. stride trades resolution for speed; persistence values
// derived from the result are in units of sampled frames.
func CollectPresence(s *scene.Scene, grid geom.Grid, iv vtime.Interval, stride int64) []TrackPresence {
	if stride < 1 {
		stride = 1
	}
	var out []TrackPresence
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for ai, a := range e.Appearances {
			clip := a.Interval().Intersect(iv)
			if clip.Empty() {
				continue
			}
			tp := TrackPresence{EntityID: e.ID, Appearance: ai}
			for f := clip.Start; f < clip.End; f += stride {
				fp := FramePresence{Frame: f}
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

// Heatmap returns the per-cell maximum persistence in sampled frames:
// for each cell, the largest number of sampled frames any single track
// spends intersecting it. This is the Fig. 3 heatmap (multiply by
// stride/fps for seconds).
func Heatmap(pres []TrackPresence, grid geom.Grid) []float64 {
	heat := make([]float64, grid.NumCells())
	counts := make(map[int32]int)
	for _, tp := range pres {
		clear(counts)
		for _, fp := range tp.Frames {
			for _, c := range fp.Cells {
				counts[c]++
			}
		}
		for c, n := range counts {
			if float64(n) > heat[c] {
				heat[c] = float64(n)
			}
		}
	}
	return heat
}

// PersistenceStat summarizes one appearance's visibility under a mask.
type PersistenceStat struct {
	EntityID      int
	Appearance    int
	TotalFrames   int64 // sampled frames in the appearance
	VisibleFrames int64 // sampled frames surviving the mask
}

// PersistenceUnderMask evaluates, for every private appearance in s
// within iv, how many sampled frames remain visible under mask m using
// the area-based visibility rule (the same rule the engine's masked
// sources apply). A nil mask hides nothing. The result backs the
// Fig. 4 persistence histograms.
func PersistenceUnderMask(s *scene.Scene, m *Mask, iv vtime.Interval, stride int64) []PersistenceStat {
	if stride < 1 {
		stride = 1
	}
	var out []PersistenceStat
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for ai, a := range e.Appearances {
			clip := a.Interval().Intersect(iv)
			if clip.Empty() {
				continue
			}
			st := PersistenceStat{EntityID: e.ID, Appearance: ai}
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

// MaxVisible returns the maximum VisibleFrames over the stats and the
// fraction of appearances that remain visible at all ("% Identities
// Retained" in Table 6).
func MaxVisible(stats []PersistenceStat) (maxFrames int64, retained float64) {
	if len(stats) == 0 {
		return 0, 0
	}
	n := 0
	for _, s := range stats {
		if s.VisibleFrames > maxFrames {
			maxFrames = s.VisibleFrames
		}
		if s.VisibleFrames > 0 {
			n++
		}
	}
	return maxFrames, float64(n) / float64(len(stats))
}
