package experiments

import (
	"fmt"

	"privid/internal/scene"
)

// runAblation quantifies the utility value of each design choice the
// paper argues for, end to end through the engine on the highway
// counting query:
//
//   - masking (§7.1): the same query with and without WITH MASK —
//     without it, the camera's unmasked (parked-car) ρ applies;
//   - chunk sizing (Fig. 6's X): the chosen 30 s chunk vs a 5 s chunk;
//   - budget split: CONSUMING 1 per release vs the engine default.
//
// Each variant reports its noise scale; the ratios are the measured
// benefit of each mechanism.
func runAblation(cfg Config) (*Summary, error) {
	sum := newSummary()
	p := scene.Highway()
	cs := setupCamera(p, cfg.Seed, cfg.window())
	begin := cs.scene.Start
	end := begin.Add(cfg.window())

	// One engine runs every variant, so variants that share a PROCESS
	// share its chunks through the chunk cache.
	e, err := sceneEngine(cfg, cs, "entrants", entrantCounter(p, cfg.Seed))
	if err != nil {
		return nil, err
	}
	variant := func(name, maskClause, chunk, consuming string) (float64, error) {
		src := fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME %s STRIDE 0sec %s INTO c;
PROCESS c USING entrants TIMEOUT 60sec PRODUCING %d ROWS WITH SCHEMA (one:NUMBER=0) INTO t;
SELECT COUNT(*) FROM (SELECT bin(chunk, 3600) AS hr FROM t) GROUP BY hr %s;`,
			p.Name, fmtTS(begin), fmtTS(end), chunk, maskClause, fig5MaxRows(p), consuming)
		res, err := execute(e, src)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return res.Releases[0].NoiseScale, nil
	}

	masked, err := variant("masked", "WITH MASK "+maskLinger, "30sec", "CONSUMING 1")
	if err != nil {
		return nil, err
	}
	unmasked, err := variant("unmasked", "", "30sec", "CONSUMING 1")
	if err != nil {
		return nil, err
	}
	smallChunk, err := variant("small-chunk", "WITH MASK "+maskLinger, "5sec", "CONSUMING 1")
	if err != nil {
		return nil, err
	}
	defaultEps, err := variant("default-eps", "WITH MASK "+maskLinger, "30sec", "")
	if err != nil {
		return nil, err
	}

	cfg.printf("Ablation (highway hourly counts): noise scale per design choice\n")
	cfg.printf("  %-34s b=%8.1f\n", "masked, 30s chunks, eps=1 (chosen)", masked)
	cfg.printf("  %-34s b=%8.1f  (%.1fx worse)\n", "no mask (parked-car rho)", unmasked, unmasked/masked)
	cfg.printf("  %-34s b=%8.1f  (%.1fx worse)\n", "5s chunks", smallChunk, smallChunk/masked)
	cfg.printf("  %-34s b=%8.1f  (budget split across releases)\n", "default eps", defaultEps)

	sum.set("noise_masked", masked)
	sum.set("noise_unmasked", unmasked)
	sum.set("mask_benefit", unmasked/masked)
	sum.set("noise_smallchunk", smallChunk)
	sum.set("chunk_benefit", smallChunk/masked)
	sum.set("noise_default_eps", defaultEps)

	// The owner's published window/policy values, for the record.
	sum.set("rho_unmasked_sec", cs.policy.Rho.Seconds())
	sum.set("rho_masked_sec", cs.lingerPolicy.Rho.Seconds())
	return sum, nil
}
