package core

import (
	"strings"
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/region"
)

func gridEngine(t *testing.T) *Engine {
	t.Helper()
	s := countScene(20)
	e := New(Options{Seed: 1, Evaluation: true})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 100,
		GridSchemes: map[string]region.GridScheme{
			"grid4": {
				Name: "grid4", Rows: 2, Cols: 2,
				FrameW: 1000, FrameH: 500,
				MaxObjectW: 40, MaxObjectH: 40,
				// Walkers cross 980 px in 20 s -> 49 px/s.
				MaxSpeedPxPerSec: 60,
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGridSplitExecution: the §7.2 Grid Split extension allows BY
// REGION with arbitrary chunk sizes, at the cost of a sensitivity
// multiplier derived from the owner's object-size and speed bounds.
func TestGridSplitExecution(t *testing.T) {
	e := gridEngine(t)
	src := strings.Replace(countQuery, "STRIDE 0sec INTO", "STRIDE 0sec BY REGION grid4 INTO", 1)
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Releases[0]
	// Each walker crosses the vertical cell boundary at x=500, so the
	// per-region entrant logic counts it once in the left cell (true
	// entry) and once in the right cell (boundary crossing): 40 rows
	// for 20 people. This is the semantic cost of Grid Split the
	// paper's future-work paragraph anticipates — analysts must
	// account for boundary crossings, and the sensitivity multiplier
	// below is what keeps the privacy guarantee intact regardless.
	if r.Raw != 40 {
		t.Errorf("raw=%v, want 40 (20 entries + 20 cell crossings)", r.Raw)
	}
	// Sensitivity must carry the grid multiplier: base Delta is
	// 20 rows * K=1 * max_chunks(25s@30s)=2 -> 40; the grid factor for
	// a 30s chunk at 60 px/s over 500-px cells is > 1.
	base := 40.0
	if r.Sensitivity <= base {
		t.Errorf("grid sensitivity %v should exceed base %v", r.Sensitivity, base)
	}
}

// TestGridSplitChunkSizeScaling: larger chunks sweep more grid cells,
// so the sensitivity multiplier grows with chunk size — the tradeoff
// the paper's future-work paragraph predicts.
func TestGridSplitChunkSizeScaling(t *testing.T) {
	sens := func(chunk string) float64 {
		e := gridEngine(t)
		src := strings.Replace(countQuery, "BY TIME 30sec", "BY TIME "+chunk, 1)
		src = strings.Replace(src, "STRIDE 0sec INTO", "STRIDE 0sec BY REGION grid4 INTO", 1)
		prog, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Releases[0].Sensitivity
	}
	small, large := sens("10sec"), sens("120sec")
	// Per-chunk region reach grows with chunk duration on a grid fine
	// enough not to saturate (the 2x2 engine grid saturates at 4).
	fine := region.GridScheme{Name: "g", Rows: 5, Cols: 10, FrameW: 1000, FrameH: 500,
		MaxObjectW: 40, MaxObjectH: 40, MaxSpeedPxPerSec: 60}
	if fine.RegionsPerChunk(1200, 10) <= fine.RegionsPerChunk(100, 10) {
		t.Errorf("grid reach should grow with chunk duration")
	}
	if small <= 0 || large <= 0 {
		t.Fatalf("sensitivities: %v %v", small, large)
	}
}

func TestGridSchemeNameCollision(t *testing.T) {
	s := countScene(2)
	e := New(Options{Seed: 1})
	err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: time.Second, K: 1},
		Epsilon: 1,
		Schemes: map[string]region.Scheme{
			"x": {Name: "x", Regions: []region.Named{{Name: "all", Rect: geom.Rect{X1: 1000, Y1: 500}}}},
		},
		GridSchemes: map[string]region.GridScheme{
			"x": {Name: "x", Rows: 1, Cols: 1, FrameW: 1, FrameH: 1, MaxObjectW: 1, MaxObjectH: 1},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("name collision accepted: %v", err)
	}
}
