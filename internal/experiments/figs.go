package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"privid/internal/core"
	"privid/internal/dp"
	"privid/internal/mask"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// runFig3 reproduces Fig. 3: per-cell persistence heatmaps and the
// masks chosen from them. It prints a coarse ASCII rendering plus the
// hottest cells, and reports how much of the frame the linger mask
// covers.
func runFig3(cfg Config) (*Summary, error) {
	sum := newSummary()
	window := cfg.window()
	for _, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		cs := setupCamera(p, cfg.Seed, window)
		s := cs.scene
		pres := scene.CollectPresence(s, cs.grid, s.Bounds(), int64(s.FPS))
		heat := mask.Heatmap(pres, cs.grid)

		maxHeat := 0.0
		for _, h := range heat {
			if h > maxHeat {
				maxHeat = h
			}
		}
		cfg.printf("Fig 3 (%s): persistence heatmap, max cell persistence %.0f s, linger mask covers %.1f%% of cells\n",
			p.Name, maxHeat, lingerMask(p, cs.grid).Fraction()*100)
		printASCIIHeatmap(cfg, cs.grid.Cols(), cs.grid.Rows(), heat, maxHeat)
		sum.set("maxcell_"+p.Name, maxHeat)
		sum.set("maskfrac_"+p.Name, lingerMask(p, cs.grid).Fraction())

		// The hot cells must be concentrated: high-percentile cells
		// should sit far below the max (lingering is localized; even
		// the largest linger region covers only a few percent of
		// cells).
		sorted := append([]float64(nil), heat...)
		sort.Float64s(sorted)
		sum.set("p99cell_"+p.Name, sorted[len(sorted)*99/100])
		sum.set("p90cell_"+p.Name, sorted[len(sorted)*90/100])
	}
	return sum, nil
}

// printASCIIHeatmap renders the heatmap downsampled to <= 64x18 chars.
func printASCIIHeatmap(cfg Config, cols, rows int, heat []float64, maxHeat float64) {
	if maxHeat <= 0 {
		return
	}
	const outW, outH = 64, 12
	shades := []byte(" .:-=+*#%@")
	for oy := 0; oy < outH; oy++ {
		line := make([]byte, outW)
		for ox := 0; ox < outW; ox++ {
			// Max-pool the covered cell block.
			v := 0.0
			x0, x1 := ox*cols/outW, (ox+1)*cols/outW
			y0, y1 := oy*rows/outH, (oy+1)*rows/outH
			for y := y0; y <= y1 && y < rows; y++ {
				for x := x0; x <= x1 && x < cols; x++ {
					if h := heat[y*cols+x]; h > v {
						v = h
					}
				}
			}
			idx := int(math.Log1p(v) / math.Log1p(maxHeat) * float64(len(shades)-1))
			line[ox] = shades[idx]
		}
		cfg.printf("  |%s|\n", line)
	}
}

// runFig4 reproduces Fig. 4: the persistence distribution is heavy
// tailed, and the linger mask slashes the maximum persistence while
// retaining almost all objects.
func runFig4(cfg Config) (*Summary, error) {
	sum := newSummary()
	window := cfg.window()
	for _, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		cs := setupCamera(p, cfg.Seed, window)
		s := cs.scene
		stride := int64(s.FPS)
		orig := scene.PersistenceUnderMask(s, nil, s.Bounds(), stride)
		masked := scene.PersistenceUnderMask(s, lingerMask(p, cs.grid), s.Bounds(), stride)
		maxO, _ := mask.MaxVisible(orig)
		maxM, retained := mask.MaxVisible(masked)
		factor := 0.0
		if maxM > 0 {
			factor = float64(maxO) / float64(maxM)
		}
		cfg.printf("Fig 4 (%s): %d objects; max persistence %d s -> %d s (%.2fx); %.1f%% objects retained\n",
			p.Name, len(orig), maxO, maxM, factor, retained*100)
		printLogHistogram(cfg, "original", orig, false)
		printLogHistogram(cfg, "masked", masked, true)
		sum.set("factor_"+p.Name, factor)
		sum.set("retained_"+p.Name, retained)
		sum.set("objects_"+p.Name, float64(len(orig)))
	}
	return sum, nil
}

// printLogHistogram prints the relative-frequency histogram of
// ln(persistence seconds), matching Fig. 4's x axis.
func printLogHistogram(cfg Config, label string, stats []mask.PersistenceStat, visible bool) {
	buckets := make([]int, 13)
	total := 0
	for _, st := range stats {
		v := st.TotalFrames
		if visible {
			v = st.VisibleFrames
		}
		if v <= 0 {
			continue
		}
		b := int(math.Log(float64(v)))
		if b < 0 {
			b = 0
		}
		if b >= len(buckets) {
			b = len(buckets) - 1
		}
		buckets[b]++
		total++
	}
	cfg.printf("  %-9s", label)
	for _, n := range buckets {
		frac := 0.0
		if total > 0 {
			frac = float64(n) / float64(total)
		}
		cfg.printf(" %4.2f", frac)
	}
	cfg.printf("  (ln s = 0..12)\n")
}

// fig5MaxRows sizes PRODUCING for the hourly-count queries: roughly
// twice the peak expected entrants per 30 s chunk.
func fig5MaxRows(p scene.Profile) int {
	perHour := 0.0
	for _, a := range p.Arrivals {
		peak := 0.0
		for _, w := range a.Diurnal {
			if w > peak {
				peak = w
			}
		}
		perHour += a.PerHour * peak
	}
	m := int(perHour/120*1.4) + 2
	return m
}

// runFig5 reproduces Fig. 5: the Q1-Q3 hourly unique-object counts.
// For each video it prints the original (non-private) series, Privid's
// pre-noise series, the released noisy series, and the 99% noise band.
func runFig5(cfg Config) (*Summary, error) {
	sum := newSummary()
	window := cfg.window()
	for i, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		qid := fmt.Sprintf("q%d", i+1)
		cs := setupCamera(p, cfg.Seed, window)
		e, err := sceneEngine(cfg, cs, "entrants", entrantCounter(p, cfg.Seed))
		if err != nil {
			return nil, err
		}
		begin := cs.scene.Start
		end := begin.Add(window)
		src := fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 30sec STRIDE 0sec WITH MASK %s INTO c;
PROCESS c USING entrants TIMEOUT 60sec PRODUCING %d ROWS WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS hr FROM t) GROUP BY hr CONSUMING 1;`,
			p.Name, fmtTS(begin), fmtTS(end), maskLinger, fig5MaxRows(p))
		res, err := execute(e, src)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", p.Name, err)
		}
		orig := baselineHourly(cs, cfg.Seed)

		cfg.printf("Fig 5 %s (%s): hourly unique objects; noise scale b=%.1f, 99%% band ±%.0f\n",
			qid, p.Name, res.Releases[0].NoiseScale, res.Releases[0].NoiseScale*math.Log(100))
		cfg.printf("  %-6s %10s %12s %10s\n", "hour", "original", "privid-raw", "privid")
		var accSum float64
		n := 0
		for h, r := range res.Releases {
			o := 0.0
			if h < len(orig) {
				o = orig[h]
			}
			cfg.printf("  %-6d %10.0f %12.0f %10.0f\n", h, o, r.Raw, r.Value)
			if o > 0 {
				accSum += accuracy(r.Raw, o, r.NoiseScale)
				n++
			}
		}
		acc := 0.0
		if n > 0 {
			acc = accSum / float64(n)
		}
		cfg.printf("  mean accuracy %.1f%%\n", acc*100)
		sum.set(qid+"_accuracy", acc)
		sum.set(qid+"_noise_scale", res.Releases[0].NoiseScale)
	}
	return sum, nil
}

// runFig7 reproduces Fig. 7: with chunk size and output range fixed,
// the per-hour noise needed to protect an individual decays as the
// query window grows, because the individual's chunks are a shrinking
// fraction of the aggregate. Each point is read from the engine: the
// noise scale of one release, the window's mean per-chunk count (AVG
// of one row per 30 s chunk with Fig. 5's max rows as its range), in
// objects per hour. Δ never depends on the data, so the camera is
// Fig. 5's masked policy over a blank 12 h source and the executable
// emits a constant.
func runFig7(cfg Config) (*Summary, error) {
	sum := newSummary()
	const chunkSec = 30
	hours := []int{2, 4, 6, 8, 10, 12}
	profiles := []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()}
	noise := make([][]float64, len(profiles)) // [profile][window]
	for i, p := range profiles {
		// Use the policies calibrated at the evaluation scale.
		cs := setupCamera(p, cfg.Seed, cfg.window())
		e := newEngine(cfg)
		if err := e.RegisterCamera(core.CameraConfig{
			Name: p.Name,
			Source: &video.IntervalSource{Camera: p.Name, W: p.W, H: p.H, FPS: p.FPS,
				Start: scene.DefaultStart, Frames: int64(p.FPS) * 3600 * int64(hours[len(hours)-1])},
			Policy:  cs.lingerPolicy,
			Epsilon: 1e6,
		}); err != nil {
			return nil, err
		}
		if err := e.Registry().Register("zero", func(*video.Chunk) []table.Row {
			return []table.Row{{table.N(0)}}
		}); err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, h := range hours {
			fmt.Fprintf(&b, "SPLIT %s BEGIN %s END %s BY TIME %dsec STRIDE 0sec INTO c%d;\n", p.Name,
				fmtTS(scene.DefaultStart), fmtTS(scene.DefaultStart.Add(time.Duration(h)*time.Hour)), chunkSec, h)
			fmt.Fprintf(&b, "PROCESS c%d USING zero TIMEOUT 1sec PRODUCING 1 ROWS WITH SCHEMA (n:NUMBER=0) INTO t%d;\n", h, h)
			fmt.Fprintf(&b, "SELECT AVG(range(n, 0, %d)) FROM t%d CONSUMING 1;\n", fig5MaxRows(p), h)
		}
		res, err := execute(e, b.String())
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", p.Name, err)
		}
		for _, r := range res.Releases {
			noise[i] = append(noise[i], r.NoiseScale*3600/chunkSec)
		}
		sum.set("noise2h_"+p.Name, noise[i][0])
		sum.set("noise12h_"+p.Name, noise[i][len(hours)-1])
	}
	cfg.printf("Fig 7: noise (objects/hour) vs window size, chunk %ds, eps=1\n", chunkSec)
	cfg.printf("%-8s", "window")
	for _, p := range profiles {
		cfg.printf(" %10s", p.Name)
	}
	cfg.printf("\n")
	for j, h := range hours {
		cfg.printf("%-8s", fmt.Sprintf("%dh", h))
		for i := range profiles {
			cfg.printf(" %10.1f", noise[i][j])
		}
		cfg.printf("\n")
	}
	return sum, nil
}

// runFig8 reproduces Fig. 8 / Eq. C.3: the adversary's maximum
// detection probability as an event exceeds the protected (ρ, K)
// bound, for several false-positive tolerances.
func runFig8(cfg Config) (*Summary, error) {
	sum := newSummary()
	alphas := []float64{0.001, 0.01, 0.1, 0.2}
	const (
		rhoFrames   = int64(300)
		chunkFrames = int64(50)
		baseEps     = 1.0
	)
	cfg.printf("Fig 8: P(detect) vs persistence ratio (eps=1 at ratio 1)\n")
	cfg.printf("%-7s", "ratio")
	for _, a := range alphas {
		cfg.printf(" %9s", fmt.Sprintf("a=%.3g", a))
	}
	cfg.printf("\n")
	for r := 0.0; r <= 12.0001; r += 1 {
		cfg.printf("%-7.1f", r)
		for _, a := range alphas {
			eff := dp.EffectiveEpsilon(baseEps, rhoFrames, 1, int64(r*float64(rhoFrames)), 1, chunkFrames)
			p := dp.DetectionProbability(eff, a)
			cfg.printf(" %9.4f", p)
			if r == 1 {
				sum.set(fmt.Sprintf("p_at_bound_a%.3g", a), p)
			}
			if r == 12 {
				sum.set(fmt.Sprintf("p_at_12x_a%.3g", a), p)
			}
		}
		cfg.printf("\n")
	}
	return sum, nil
}
