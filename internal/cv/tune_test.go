package cv

import (
	"math"
	"testing"
	"time"

	"privid/internal/scene"
)

func TestKSDistance(t *testing.T) {
	if got := KSDistance(nil, nil); got != 0 {
		t.Errorf("empty-empty=%v", got)
	}
	if got := KSDistance([]float64{1}, nil); got != 1 {
		t.Errorf("empty-vs-one=%v", got)
	}
	// Identical samples.
	a := []float64{1, 2, 3, 4}
	if got := KSDistance(a, a); got != 0 {
		t.Errorf("identical=%v", got)
	}
	// Fully separated samples have distance 1.
	if got := KSDistance([]float64{1, 2}, []float64{10, 20}); got != 1 {
		t.Errorf("separated=%v", got)
	}
	// A known partial overlap: {1,2,3} vs {2,3,4}: max CDF gap is 1/3.
	if got := KSDistance([]float64{1, 2, 3}, []float64{2, 3, 4}); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("partial=%v, want 1/3", got)
	}
	// Symmetry.
	x, y := []float64{1, 5, 9}, []float64{2, 3, 4, 8}
	if KSDistance(x, y) != KSDistance(y, x) {
		t.Errorf("KS not symmetric")
	}
}

// TestTuneChoosesSaneParams runs the Appendix-A loop on a small campus
// segment: the chosen configuration must match the ground-truth
// duration distribution better than the worst one, and its max
// estimate must be in the right ballpark.
func TestTuneChoosesSaneParams(t *testing.T) {
	p := scene.Campus()
	s := scene.Generate(p, 3, 8*time.Minute)
	src := s.Source("campus")

	// The owner's manual annotation: ground-truth durations.
	var gt []float64
	for _, e := range s.Ents {
		if !e.Class.Private() {
			continue
		}
		for _, a := range e.Appearances {
			gt = append(gt, s.FPS.Seconds(a.Interval().Intersect(s.Bounds()).Len()))
		}
	}
	if len(gt) < 5 {
		t.Skip("segment too sparse for this seed")
	}

	results := Tune(src, s.Bounds(), ParamsFor(p), DefaultTuneGrid(), gt, 3)
	if len(results) != len(DefaultTuneGrid()) {
		t.Fatalf("%d results, want %d", len(results), len(DefaultTuneGrid()))
	}
	best, worst := results[0], results[len(results)-1]
	if best.Distance >= worst.Distance {
		t.Fatalf("results not sorted: best %v, worst %v", best.Distance, worst.Distance)
	}
	if best.Distance > 0.5 {
		t.Errorf("best configuration distance %v, want a reasonable match", best.Distance)
	}
	// The chosen configuration's max estimate should be within 2x of
	// the ground-truth max (the quantity the owner cares about).
	gtMax := 0.0
	for _, d := range gt {
		if d > gtMax {
			gtMax = d
		}
	}
	if best.MaxSeconds < gtMax*0.5 || best.MaxSeconds > gtMax*2.5 {
		t.Errorf("tuned max estimate %v vs GT max %v", best.MaxSeconds, gtMax)
	}
}
