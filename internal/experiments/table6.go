package experiments

import (
	"time"

	"privid/internal/mask"
	"privid/internal/scene"
)

// runTable6 reproduces Table 6 / Fig. 11: Algorithm 2's greedy mask
// ordering on all ten videos (the three Privid videos plus the BlazeIt
// and MIRIS extensions). For each video it reports the smallest greedy
// prefix achieving an 8x cut in max persistence, the fraction of grid
// boxes masked, and the identities retained, plus sampled points of
// the Fig. 11 cumulative curves.
func runTable6(cfg Config) (*Summary, error) {
	sum := newSummary()
	dur := cfg.window()
	if dur > 2*time.Hour {
		dur = 2 * time.Hour
	}
	cfg.printf("Table 6: greedy masking (Algorithm 2) on 10 videos (window %v)\n", dur)
	cfg.printf("%-14s %10s %12s %12s %10s %10s\n",
		"video", "% masked", "max before", "max after", "reduction", "retained")

	for _, name := range []string{
		"campus", "highway", "urban",
		"grand-canal", "venice-rialto", "taipei",
		"shibuya", "beach", "warsaw", "uav",
	} {
		p := scene.Profiles()[name]
		cs := setupCamera(p, cfg.Seed, dur)
		s := cs.scene
		pres := scene.CollectPresence(s, cs.grid, s.Bounds(), int64(s.FPS))
		if len(pres) == 0 {
			continue
		}
		base := 0
		for _, tp := range pres {
			if len(tp.Frames) > base {
				base = len(tp.Frames)
			}
		}
		steps := mask.GreedyOrder(pres, cs.grid)
		target := base / 8
		chosen := -1
		for i, st := range steps {
			if st.MaxPersistence <= target {
				chosen = i
				break
			}
		}
		if chosen < 0 {
			chosen = len(steps) - 1
		}
		st := steps[chosen]
		frac := float64(chosen+1) / float64(cs.grid.NumCells())
		reduction := float64(base)
		if st.MaxPersistence > 0 {
			reduction = float64(base) / float64(st.MaxPersistence)
		}
		cfg.printf("%-14s %9.1f%% %11ds %11ds %9.1fx %9.1f%%\n",
			name, frac*100, base, st.MaxPersistence, reduction, st.IdentitiesRetained*100)
		sum.set("reduction_"+name, reduction)
		sum.set("retained_"+name, st.IdentitiesRetained)
		sum.set("maskfrac_"+name, frac)

		// Fig 11: sampled cumulative curves.
		cfg.printf("  fig11 %-12s", name)
		for _, fr := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5} {
			idx := int(fr * float64(cs.grid.NumCells()))
			if idx >= len(steps) {
				idx = len(steps) - 1
			}
			if idx < 0 {
				idx = 0
			}
			cfg.printf(" [%4.1f%%: %.2f/%.2f]",
				fr*100,
				float64(steps[idx].MaxPersistence)/float64(base),
				steps[idx].IdentitiesRetained)
		}
		cfg.printf("  (masked%%: persist-frac/identity-frac)\n")
	}
	return sum, nil
}
