package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

// runFig6 reproduces Fig. 6: RMSE of the hourly-count queries as a
// joint function of chunk size and max per-chunk output. Larger chunks
// give the analyst's tracker more context (the pre-noise error falls)
// but let any one individual influence a larger fraction of the table
// (the noise grows); small output caps truncate real rows.
//
// Each chunk size is one program. Its executable emits a chunk's
// entrant count as one row, and each output cap m is a SELECT of the
// hourly SUM(range(n, 0, m)): the same raw series and the same Δ as
// PRODUCING m ROWS of one row per entrant, from a single tracker pass
// (max rows is part of the chunk-cache key, so five PRODUCING caps
// would run the tracker five times). Each hour's Raw and NoiseScale
// come from the releases; the Laplace RMSE contribution is √2·b
// exactly, which is what averaging 100 noisy samples estimates.
func runFig6(cfg Config) (*Summary, error) {
	sum := newSummary()
	window := min(cfg.window(), 2*time.Hour)
	chunkSecs := []int64{1, 5, 10, 30, 60, 120}
	rowMults := []float64{0.25, 0.5, 1, 2, 4}

	for _, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		cs := setupCamera(p, cfg.Seed, window)
		entrants := entrantCounter(p, cfg.Seed)
		e, err := sceneEngine(cfg, cs, "entrant_count", func(chunk *video.Chunk) []table.Row {
			return []table.Row{{table.N(float64(len(entrants(chunk))))}}
		})
		if err != nil {
			return nil, err
		}
		caps := make([]int, len(rowMults))
		for i, mult := range rowMults {
			caps[i] = max(1, int(float64(fig5MaxRows(p))*mult+0.5))
		}
		orig := baselineHourly(cs, cfg.Seed)

		rmse := make([][]float64, len(caps)) // [cap][chunk size]
		for _, c := range chunkSecs {
			var b strings.Builder
			fmt.Fprintf(&b, "SPLIT %s BEGIN %s END %s BY TIME %dsec STRIDE 0sec WITH MASK %s INTO c;\n",
				p.Name, fmtTS(cs.scene.Start), fmtTS(cs.scene.Start.Add(window)), c, maskLinger)
			b.WriteString("PROCESS c USING entrant_count TIMEOUT 60sec PRODUCING 1 ROWS WITH SCHEMA (n:NUMBER=0) INTO t;\n")
			for _, m := range caps {
				fmt.Fprintf(&b, "SELECT SUM(range(n, 0, %d)) FROM (SELECT bin(chunk, 3600) AS hr, n FROM t) GROUP BY hr CONSUMING 1;\n", m)
			}
			res, err := execute(e, b.String())
			if err != nil {
				return nil, fmt.Errorf("fig6 %s %ds: %w", p.Name, c, err)
			}
			hours := len(res.Releases) / len(caps)
			for i := range caps {
				var se float64
				for h, r := range res.Releases[i*hours : (i+1)*hours] {
					o := 0.0
					if h < len(orig) {
						o = orig[h]
					}
					d := r.Raw - o
					se += d*d + 2*r.NoiseScale*r.NoiseScale // E[(bias+Lap)^2] = bias^2 + 2b^2
				}
				rmse[i] = append(rmse[i], math.Sqrt(se/float64(hours)))
			}
		}

		cfg.printf("Fig 6 (%s): RMSE vs chunk size x max per-chunk output (window %v)\n", p.Name, window)
		cfg.printf("  %-8s", "rows\\c")
		for _, c := range chunkSecs {
			cfg.printf(" %8ds", c)
		}
		cfg.printf("\n")
		for i, m := range caps {
			cfg.printf("  %-8d", m)
			for j, c := range chunkSecs {
				cfg.printf(" %9.0f", rmse[i][j])
				if key := keyFig6(p.Name, c); rowMults[i] == 1 && key != "" {
					sum.set(key, rmse[i][j])
				}
			}
			cfg.printf("\n")
		}
	}
	return sum, nil
}

func keyFig6(name string, chunkSec int64) string {
	switch chunkSec {
	case 1:
		return "rmse_c1_" + name
	case 30:
		return "rmse_c30_" + name
	case 120:
		return "rmse_c120_" + name
	default:
		return ""
	}
}
