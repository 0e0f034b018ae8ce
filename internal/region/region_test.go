package region

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/scene"
	"privid/internal/video"
)

func TestFromSpecScaling(t *testing.T) {
	spec := scene.RegionSpec{Name: "halves", Hard: true, Regions: []scene.NamedRect{
		{Name: "left", Rect: geom.Rect{X0: 0, Y0: 0, X1: 0.5, Y1: 1}},
		{Name: "right", Rect: geom.Rect{X0: 0.5, Y0: 0, X1: 1, Y1: 1}},
	}}
	s := FromSpec(spec, 1280, 720)
	if !s.Hard || len(s.Regions) != 2 {
		t.Fatalf("scheme: %+v", s)
	}
	if s.Regions[0].Rect != (geom.Rect{X0: 0, Y0: 0, X1: 640, Y1: 720}) {
		t.Errorf("left rect: %v", s.Regions[0].Rect)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Scheme{
		{Name: "empty"},
		{Name: "unnamed", Regions: []Named{{Rect: geom.Rect{X1: 1, Y1: 1}}}},
		{Name: "dup", Regions: []Named{
			{Name: "a", Rect: geom.Rect{X1: 1, Y1: 1}},
			{Name: "a", Rect: geom.Rect{X1: 1, Y1: 1}},
		}},
		{Name: "emptyrect", Regions: []Named{{Name: "a"}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scheme %q accepted", s.Name)
		}
	}
}

// laneScene builds a highway-like scene: nTop entities in the top half
// and nBottom in the bottom half, all visible concurrently.
func laneScene(nTop, nBottom int) *scene.Scene {
	s := &scene.Scene{Name: "lanes", W: 1000, H: 500, FPS: 10, Frames: 1000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	id := 0
	add := func(y float64) {
		s.Ents = append(s.Ents, &scene.Entity{
			ID: id, Class: scene.Car,
			Appearances: []scene.Appearance{{
				Enter: 0, Exit: 1000,
				Traj: scene.NewPath(0, 1000, 40, 20, 1,
					scene.Waypoint{T: 0, P: geom.Point{X: 100 + float64(id*30), Y: y}},
					scene.Waypoint{T: 1, P: geom.Point{X: 100 + float64(id*30), Y: y}}),
			}},
		})
		id++
	}
	for i := 0; i < nTop; i++ {
		add(120)
	}
	for i := 0; i < nBottom; i++ {
		add(380)
	}
	s.BuildIndex()
	return s
}

func TestAnalyzeReduction(t *testing.T) {
	// 6 cars in the top lane, 4 in the bottom: the frame max is 10,
	// the per-region max is 6 — Table 2's reduction is 10/6.
	s := laneScene(6, 4)
	src := &video.SceneSource{Camera: "c", Scene: s}
	sch := Scheme{Name: "dirs", Hard: true, Regions: []Named{
		{Name: "top", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{X0: 0, Y0: 250, X1: 1000, Y1: 500}},
	}}
	a := Analyze(src, sch, s.Bounds(), 200, 10)
	if a.FrameMax != 10 {
		t.Errorf("FrameMax=%d, want 10", a.FrameMax)
	}
	if a.RegionMax != 6 {
		t.Errorf("RegionMax=%d, want 6", a.RegionMax)
	}
	if got := a.Reduction(); got < 1.66 || got > 1.67 {
		t.Errorf("Reduction=%v, want 10/6", got)
	}
}

func TestAnalyzeEmptyScene(t *testing.T) {
	s := laneScene(0, 0)
	src := &video.SceneSource{Camera: "c", Scene: s}
	sch := Scheme{Name: "one", Regions: []Named{{Name: "all", Rect: geom.Rect{X1: 1000, Y1: 500}}}}
	a := Analyze(src, sch, s.Bounds(), 100, 10)
	if a.FrameMax != 0 || a.RegionMax != 0 || a.Reduction() != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestSchemeSources(t *testing.T) {
	s := laneScene(2, 3)
	src := &video.SceneSource{Camera: "c", Scene: s}
	sch := Scheme{Name: "dirs", Hard: true, Regions: []Named{
		{Name: "top", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{X0: 0, Y0: 250, X1: 1000, Y1: 500}},
	}}
	srcs := sch.Sources(src)
	if len(srcs) != 2 {
		t.Fatalf("%d sources", len(srcs))
	}
	if got := len(srcs[0].Frame(500).Objects); got != 2 {
		t.Errorf("top objects=%d, want 2", got)
	}
	if got := len(srcs[1].Frame(500).Objects); got != 3 {
		t.Errorf("bottom objects=%d, want 3", got)
	}
}
