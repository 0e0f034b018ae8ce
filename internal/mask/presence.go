package mask

import "privid/internal/geom"

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
