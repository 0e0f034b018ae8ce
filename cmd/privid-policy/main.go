// Command privid-policy is the video owner's calibration tool: it
// estimates the maximum visible duration of individuals with the
// (imperfect) CV pipeline, renders the persistence heatmap, runs
// Algorithm 2's greedy mask ordering, and prints the mask→(ρ, K)
// policy map the owner would publish (§5.2, §7.1, Appendix F).
//
// Usage:
//
//	privid-policy -video campus [-dur 1h] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"privid/internal/cv"
	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/scene"
)

func main() {
	var (
		name = flag.String("video", "campus", "profile name (campus, highway, urban, grand-canal, ...)")
		dur  = flag.Duration("dur", time.Hour, "historical video duration to analyze")
		seed = flag.Int64("seed", 1, "deterministic seed")
		k    = flag.Int("k", 2, "K bound to publish with each mask")
	)
	flag.Parse()

	p, ok := scene.Profiles()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "privid-policy: unknown video %q\n", *name)
		os.Exit(1)
	}
	s := scene.Generate(p, *seed, *dur)
	src := s.Source(p.Name)

	fmt.Printf("== %s: %v of historical video, %d private entities\n", p.Name, *dur, len(s.Ents))

	// Step 1: CV duration estimation (the Table 1 pipeline).
	rep := cv.EstimateDurations(src, s.Bounds(), cv.ParamsFor(p), cv.OwnerTracker(), *seed, 1)
	gt := s.MaxDurationSeconds(s.Bounds())
	fmt.Printf("CV max-duration estimate: %.1f s (ground truth %.1f s, %.0f%% of per-frame objects missed)\n",
		rep.MaxSeconds, gt, rep.MissedFraction()*100)

	// Step 2: persistence heatmap.
	grid := geom.NewGrid(s.W, s.H, 10, 10)
	pres := scene.CollectPresence(s, grid, s.Bounds(), int64(s.FPS))
	heat := mask.Heatmap(pres, grid)
	maxHeat := 0.0
	for _, h := range heat {
		if h > maxHeat {
			maxHeat = h
		}
	}
	fmt.Printf("\nPersistence heatmap (max cell %.0f s):\n", maxHeat)
	printHeatmap(grid, heat, maxHeat)

	// Step 3: Algorithm 2 + the published policy map.
	pm := mask.BuildPolicyMap(p.Name, pres, grid, s.FPS, int64(s.FPS), *k, []float64{1, 2, 4, 8, 16})
	fmt.Printf("\nPublished mask -> policy map:\n")
	fmt.Printf("%-20s %10s %12s %6s\n", "mask id", "% masked", "rho", "K")
	for _, e := range pm.Entries {
		fmt.Printf("%-20s %9.1f%% %12v %6d\n", e.ID, e.Mask.Fraction()*100, e.Policy.Rho.Round(time.Second), e.Policy.K)
	}
}

func printHeatmap(grid geom.Grid, heat []float64, maxHeat float64) {
	if maxHeat <= 0 {
		return
	}
	const outW, outH = 64, 14
	shades := []byte(" .:-=+*#%@")
	cols, rows := grid.Cols(), grid.Rows()
	for oy := 0; oy < outH; oy++ {
		line := make([]byte, outW)
		for ox := 0; ox < outW; ox++ {
			v := 0.0
			for y := oy * rows / outH; y <= (oy+1)*rows/outH && y < rows; y++ {
				for x := ox * cols / outW; x <= (ox+1)*cols/outW && x < cols; x++ {
					if h := heat[y*cols+x]; h > v {
						v = h
					}
				}
			}
			line[ox] = shades[int(math.Log1p(v)/math.Log1p(maxHeat)*float64(len(shades)-1))]
		}
		fmt.Printf("  |%s|\n", line)
	}
}
