// Package region implements Privid's spatial-splitting optimization
// (§7.2): video-owner-defined schemes that divide the frame into
// regions, per-region chunk views, and the max-output analysis behind
// Table 2 (splitting shrinks the per-chunk output range an individual
// can influence, and therefore the noise).
package region

import (
	"fmt"

	"privid/internal/geom"
	"privid/internal/scene"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Named is one region of a scheme, in absolute pixel coordinates.
type Named struct {
	Name string
	Rect geom.Rect
}

// Scheme is a spatial-splitting scheme registered by the video owner.
// Hard declares that individuals never cross region boundaries (e.g.
// opposite highway directions); soft schemes restrict queries to a
// chunk size of one frame so an individual can occupy at most one
// chunk at a time (§7.2).
type Scheme struct {
	Name    string
	Hard    bool
	Regions []Named
}

// FromSpec scales a profile's unit-coordinate region spec to a frame.
func FromSpec(spec scene.RegionSpec, w, h float64) Scheme {
	s := Scheme{Name: spec.Name, Hard: spec.Hard}
	for _, r := range spec.Regions {
		s.Regions = append(s.Regions, Named{
			Name: r.Name,
			Rect: geom.Rect{X0: r.Rect.X0 * w, Y0: r.Rect.Y0 * h, X1: r.Rect.X1 * w, Y1: r.Rect.Y1 * h},
		})
	}
	return s
}

// Validate checks the scheme is non-empty with uniquely named,
// non-empty regions.
func (s Scheme) Validate() error {
	if len(s.Regions) == 0 {
		return fmt.Errorf("region: scheme %q has no regions", s.Name)
	}
	seen := map[string]bool{}
	for _, r := range s.Regions {
		if r.Name == "" {
			return fmt.Errorf("region: unnamed region in scheme %q", s.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("region: duplicate region %q in scheme %q", r.Name, s.Name)
		}
		seen[r.Name] = true
		if r.Rect.Empty() {
			return fmt.Errorf("region: empty region %q in scheme %q", r.Name, s.Name)
		}
	}
	return nil
}

// Sources returns one cropped view of src per region, in scheme order
// (index-aligned with Regions), so whatever is built from them comes
// out in the same order on every run.
func (s Scheme) Sources(src video.Source) []video.Source {
	out := make([]video.Source, len(s.Regions))
	for i, r := range s.Regions {
		out[i] = video.Cropped(src, r.Rect)
	}
	return out
}

// Analysis is the Table 2 measurement for one source and scheme.
type Analysis struct {
	// FrameMax is the maximum number of distinct private objects
	// visible in any single chunk across the whole frame.
	FrameMax int
	// RegionMax is the maximum number of distinct private objects
	// visible in any single chunk within any single region.
	RegionMax int
}

// Reduction returns FrameMax/RegionMax — the factor by which splitting
// lowers the required output range and thus the noise (Table 2).
func (a Analysis) Reduction() float64 {
	if a.RegionMax == 0 {
		return 0
	}
	return float64(a.FrameMax) / float64(a.RegionMax)
}

// Analyze measures, for each chunk of chunkFrames frames over iv, the
// number of distinct private objects visible (sampling every stride-th
// frame), both frame-wide and per region, and returns the maxima.
func Analyze(src video.Source, sch Scheme, iv vtime.Interval, chunkFrames, stride int64) Analysis {
	if stride < 1 {
		stride = 1
	}
	var out Analysis
	for start := iv.Start; start < iv.End; start += chunkFrames {
		end := start + chunkFrames
		if end > iv.End {
			end = iv.End
		}
		frameIDs := map[int]bool{}
		regionIDs := make([]map[int]bool, len(sch.Regions))
		for i := range regionIDs {
			regionIDs[i] = map[int]bool{}
		}
		for f := start; f < end; f += stride {
			for _, o := range src.Frame(f).Objects {
				if !o.Class.Private() {
					continue
				}
				frameIDs[o.EntityID] = true
				c := o.Box.Center()
				for i, r := range sch.Regions {
					if r.Rect.Contains(c) {
						regionIDs[i][o.EntityID] = true
					}
				}
			}
		}
		if len(frameIDs) > out.FrameMax {
			out.FrameMax = len(frameIDs)
		}
		for _, ids := range regionIDs {
			if len(ids) > out.RegionMax {
				out.RegionMax = len(ids)
			}
		}
	}
	return out
}
