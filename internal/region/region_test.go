package region

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/video"
)

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

// laneSource builds a highway-like stream: nTop cars in the top half
// and nBottom in the bottom half, all visible for the whole stream.
func laneSource(nTop, nBottom int) *video.IntervalSource {
	src := &video.IntervalSource{Camera: "c", W: 1000, H: 500, FPS: 10, Frames: 1000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	add := func(y float64) {
		id := len(src.Objects)
		src.Objects = append(src.Objects, video.FakeObject{
			ID: id, Class: video.Car, Enter: 0, Exit: 1000,
			Box: geom.RectAround(geom.Point{X: 100 + float64(id*30), Y: y}, 40, 20),
		})
	}
	for i := 0; i < nTop; i++ {
		add(120)
	}
	for i := 0; i < nBottom; i++ {
		add(380)
	}
	return src
}

func TestAnalyzeReduction(t *testing.T) {
	// 6 cars in the top lane, 4 in the bottom: the frame max is 10,
	// the per-region max is 6 — Table 2's reduction is 10/6.
	src := laneSource(6, 4)
	sch := Scheme{Name: "dirs", Hard: true, Regions: []Named{
		{Name: "top", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 250}},
		{Name: "bottom", Rect: geom.Rect{X0: 0, Y0: 250, X1: 1000, Y1: 500}},
	}}
	a := Analyze(src, sch, src.Info().Bounds(), 200, 10)
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
	src := laneSource(0, 0)
	sch := Scheme{Name: "one", Regions: []Named{{Name: "all", Rect: geom.Rect{X1: 1000, Y1: 500}}}}
	a := Analyze(src, sch, src.Info().Bounds(), 100, 10)
	if a.FrameMax != 0 || a.RegionMax != 0 || a.Reduction() != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestSchemeSources(t *testing.T) {
	src := laneSource(2, 3)
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
