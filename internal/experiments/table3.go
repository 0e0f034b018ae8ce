package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/taxi"
	"privid/internal/video"
)

// fmtTS formats a timestamp for the query language.
func fmtTS(t time.Time) string { return t.Format("1-2-2006/3:04pm") }

// accuracy is the paper's metric computed analytically: the expected
// accuracy over noise draws, 1 − (|raw−orig| + E|Laplace(b)|)/|orig|,
// clamped to [0, 1]. E|Laplace(b)| = b.
func accuracy(raw, orig, noiseScale float64) float64 {
	denom := math.Abs(orig)
	if denom < 1e-9 {
		if math.Abs(raw)+noiseScale < 1e-9 {
			return 1
		}
		return 0
	}
	acc := 1 - (math.Abs(raw-orig)+noiseScale)/denom
	if acc < 0 {
		return 0
	}
	if acc > 1 {
		return 1
	}
	return acc
}

// runTable3 reproduces the Table 3 case studies Q4–Q13.
func runTable3(cfg Config) (*Summary, error) {
	sum := newSummary()
	cfg.printf("Table 3: query case studies\n")
	cfg.printf("%-4s %-34s %-10s %12s %12s %9s\n", "Q#", "description", "video", "original", "privid", "accuracy")
	if err := runTaxiCases(cfg, sum); err != nil {
		return nil, err
	}
	if err := runTreeCases(cfg, sum); err != nil {
		return nil, err
	}
	if err := runLightCases(cfg, sum); err != nil {
		return nil, err
	}
	if err := runQ13(cfg, sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// taxiPolicy returns the per-camera (ρ, K) for a porto camera: ρ
// covers the camera's visibility tail, K bounds per-day revisits.
func taxiPolicy(f *taxi.Fleet, cam int) policy.Policy {
	rho := f.BaseVisibilitySec(cam) * 3.5
	if rho > 525 {
		rho = 525
	}
	return policy.Policy{Rho: time.Duration(rho * float64(time.Second)), K: 2}
}

// taxiEmitterFunc emits the distinct taxis visible in a chunk.
func taxiEmitterFunc(chunk *video.Chunk) []table.Row {
	seen := map[string]bool{}
	var rows []table.Row
	for f := int64(0); f < chunk.Len(); f++ {
		for _, o := range chunk.Frame(f).Objects {
			if o.Plate != "" && !seen[o.Plate] {
				seen[o.Plate] = true
				rows = append(rows, table.Row{table.S(o.Plate)})
			}
		}
	}
	return rows
}

func newTaxiEngine(cfg Config, fleet *taxi.Fleet, cams []int) (*core.Engine, error) {
	e := newEngine(cfg)
	for _, c := range cams {
		if err := e.RegisterCamera(core.CameraConfig{
			Name:    taxi.CameraName(c),
			Source:  fleet.Source(c),
			Policy:  taxiPolicy(fleet, c),
			Epsilon: 1e6,
		}); err != nil {
			return nil, err
		}
	}
	if err := e.Registry().Register("taxis", taxiEmitterFunc); err != nil {
		return nil, err
	}
	return e, nil
}

// splitProcess emits a SPLIT+PROCESS pair for one porto camera.
func taxiSplitProcess(b *strings.Builder, fleet *taxi.Fleet, cam, days int) {
	begin := fleet.Cfg.Start
	end := begin.Add(time.Duration(days) * 24 * time.Hour)
	fmt.Fprintf(b, "SPLIT %s BEGIN %s END %s BY TIME 15sec STRIDE 0sec INTO c%d;\n",
		taxi.CameraName(cam), fmtTS(begin), fmtTS(end), cam)
	fmt.Fprintf(b, "PROCESS c%d USING taxis TIMEOUT 30sec PRODUCING 4 ROWS WITH SCHEMA (plate:STRING=\"\") INTO t%d;\n", cam, cam)
}

func runTaxiCases(cfg Config, sum *Summary) error {
	days := cfg.taxiDays()
	tcfg := taxi.DefaultConfig()
	tcfg.Days = days
	tcfg.Seed = cfg.Seed
	fleet := taxi.NewFleet(tcfg)

	// ---- Q4: union across 2 cameras: distinct taxi-hours observed.
	e, err := newTaxiEngine(cfg, fleet, []int{10, 27})
	if err != nil {
		return err
	}
	var b strings.Builder
	taxiSplitProcess(&b, fleet, 10, days)
	taxiSplitProcess(&b, fleet, 27, days)
	b.WriteString(`SELECT COUNT(*) FROM
 (SELECT plate, bin(chunk, 3600) AS hr FROM t10 GROUP BY plate, hr)
 OUTER JOIN
 (SELECT plate, bin(chunk, 3600) AS hr FROM t27 GROUP BY plate, hr)
 ON plate, hr;`)
	res, err := execute(e, b.String())
	if err != nil {
		return fmt.Errorf("Q4: %w", err)
	}
	r := res.Releases[0]
	origQ4 := float64(countTaxiHours(fleet, days, []int{10, 27}, false))
	accQ4 := accuracy(r.Raw, origQ4, r.NoiseScale)
	hours := r.Value / float64(tcfg.Taxis) / float64(days)
	cfg.printf("%-4s %-34s %-10s %12.0f %12.0f %8.2f%%  (avg %.2f h/taxi-day)\n",
		"Q4", "taxi-hours, union of 2 cameras", "porto", origQ4, r.Value, accQ4*100, hours)
	sum.set("q4_accuracy", accQ4)

	// ---- Q5: intersection: taxi-days seen at BOTH cameras.
	var b5 strings.Builder
	taxiSplitProcess(&b5, fleet, 10, days)
	taxiSplitProcess(&b5, fleet, 27, days)
	b5.WriteString(`SELECT COUNT(*) FROM
 (SELECT plate, day(chunk) AS d FROM t10 GROUP BY plate, d)
 JOIN
 (SELECT plate, day(chunk) AS d FROM t27 GROUP BY plate, d)
 ON plate, d;`)
	e5, err := newTaxiEngine(cfg, fleet, []int{10, 27})
	if err != nil {
		return err
	}
	res5, err := execute(e5, b5.String())
	if err != nil {
		return fmt.Errorf("Q5: %w", err)
	}
	r5 := res5.Releases[0]
	origQ5 := float64(countTaxiHours(fleet, days, []int{10, 27}, true))
	accQ5 := accuracy(r5.Raw, origQ5, r5.NoiseScale)
	cfg.printf("%-4s %-34s %-10s %12.0f %12.0f %8.2f%%  (avg %.1f taxis/day)\n",
		"Q5", "taxi-days at both cameras", "porto", origQ5, r5.Value, accQ5*100, r5.Value/float64(days))
	sum.set("q5_accuracy", accQ5)

	// ---- Q6: ARGMAX over all cameras: the busiest junction.
	q6days := days / 6
	if q6days < 5 {
		q6days = 5
	}
	if q6days > 30 {
		q6days = 30
	}
	allCams := make([]int, fleet.Cfg.Cameras)
	for i := range allCams {
		allCams[i] = i
	}
	e6, err := newTaxiEngine(cfg, fleet, allCams)
	if err != nil {
		return err
	}
	var b6 strings.Builder
	for _, c := range allCams {
		taxiSplitProcess(&b6, fleet, c, q6days)
	}
	b6.WriteString("SELECT ARGMAX(cam) FROM\n")
	for i, c := range allCams {
		if i > 0 {
			b6.WriteString(" UNION ")
		}
		fmt.Fprintf(&b6, "(SELECT \"%s\" AS cam FROM t%d)", taxi.CameraName(c), c)
	}
	b6.WriteString("\nGROUP BY cam WITH KEYS [")
	for i, c := range allCams {
		if i > 0 {
			b6.WriteString(", ")
		}
		fmt.Fprintf(&b6, "%q", taxi.CameraName(c))
	}
	b6.WriteString("];")
	res6, err := execute(e6, b6.String())
	if err != nil {
		return fmt.Errorf("Q6: %w", err)
	}
	r6 := res6.Releases[0]
	truth := busiestCamera(fleet, q6days)
	accQ6 := 0.0
	if r6.ArgmaxKey.Str() == taxi.CameraName(truth) {
		accQ6 = 1
	}
	cfg.printf("%-4s %-34s %-10s %12s %12s %8.2f%%\n",
		"Q6", "busiest camera (argmax, 105 cams)", "porto", taxi.CameraName(truth), r6.ArgmaxKey.Str(), accQ6*100)
	sum.set("q6_accuracy", accQ6)
	return nil
}

// countTaxiHours counts, from ground truth, distinct (taxi, hour)
// pairs observed at any of the cameras (both=false) or distinct
// (taxi, day) pairs observed at every camera (both=true).
func countTaxiHours(f *taxi.Fleet, days int, cams []int, both bool) int {
	if both {
		seen := map[[2]int]map[int]bool{} // (taxi, day) -> cams
		for d := 0; d < days; d++ {
			dayVisits := f.Day(d)
			for _, c := range cams {
				for _, v := range dayVisits[c] {
					k := [2]int{v.Taxi, d}
					if seen[k] == nil {
						seen[k] = map[int]bool{}
					}
					seen[k][c] = true
				}
			}
		}
		n := 0
		for _, cs := range seen {
			if len(cs) == len(cams) {
				n++
			}
		}
		return n
	}
	seen := map[[2]int]bool{} // (taxi, hour)
	for d := 0; d < days; d++ {
		dayVisits := f.Day(d)
		for _, c := range cams {
			for _, v := range dayVisits[c] {
				for h := v.Start / 3600; h <= (v.End-1)/3600; h++ {
					seen[[2]int{v.Taxi, int(h)}] = true
				}
			}
		}
	}
	return len(seen)
}

// busiestCamera returns the camera with the most visit-chunks over the
// window (matching what COUNT over 15 s chunks measures).
func busiestCamera(f *taxi.Fleet, days int) int {
	counts := make(map[int]int64)
	for d := 0; d < days; d++ {
		for cam, vs := range f.Day(d) {
			for _, v := range vs {
				counts[cam] += (v.End - v.Start + 14) / 15
			}
		}
	}
	best, bestN := 0, int64(-1)
	for cam, n := range counts {
		if n > bestN {
			best, bestN = cam, n
		}
	}
	return best
}

// runTreeCases reproduces Q7–Q9: the bloomed fraction of (non-private)
// trees, sampled one frame every 10 minutes under the linger mask.
func runTreeCases(cfg Config, sum *Summary) error {
	for i, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		qid := fmt.Sprintf("Q%d", 7+i)
		cs := setupCamera(p, cfg.Seed, cfg.window())
		e, err := sceneEngine(cfg, cs, "trees", treeReader())
		if err != nil {
			return err
		}
		begin := cs.scene.Start
		end := begin.Add(cfg.window())
		// The paper's Q7 setting: one-frame chunks with no stride. The
		// enormous chunk count is what makes the noise negligible —
		// C̃s grows with every chunk while the event's Δ stays fixed.
		src := fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 1frame STRIDE 0sec WITH MASK %s INTO c;
PROCESS c USING trees TIMEOUT 30sec PRODUCING %d ROWS WITH SCHEMA (leaf:NUMBER=0) INTO t;
SELECT AVG(range(leaf, 0, 100)) FROM t;`,
			p.Name, fmtTS(begin), fmtTS(end), maskLinger, p.TreeCount)
		res, err := execute(e, src)
		if err != nil {
			return fmt.Errorf("%s: %w", qid, err)
		}
		r := res.Releases[0]
		orig := 100 * float64(p.TreeLeafy) / float64(p.TreeCount)
		acc := accuracy(r.Raw, orig, r.NoiseScale)
		cfg.printf("%-4s %-34s %-10s %11.1f%% %11.1f%% %8.2f%%\n",
			qid, "fraction of trees with leaves", p.Name, orig, r.Value, acc*100)
		sum.set(strings.ToLower(qid)+"_accuracy", acc)
	}
	return nil
}

// runLightCases reproduces Q10–Q12: mean red-light duration with the
// everything-but-the-light mask (ρ = 0, so zero noise).
func runLightCases(cfg Config, sum *Summary) error {
	for i, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		qid := fmt.Sprintf("Q%d", 10+i)
		if len(p.Lights) == 0 {
			return fmt.Errorf("%s: profile %s has no traffic light", qid, p.Name)
		}
		cs := setupCamera(p, cfg.Seed, cfg.window())
		e, err := sceneEngine(cfg, cs, "redlight", redLightMeter(p.FPS))
		if err != nil {
			return err
		}
		begin := cs.scene.Start
		end := begin.Add(cfg.window())
		src := fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 10min STRIDE 0sec WITH MASK %s INTO c;
PROCESS c USING redlight TIMEOUT 30sec PRODUCING 1 ROWS WITH SCHEMA (red:NUMBER=0) INTO t;
SELECT AVG(range(red, 0, 300)) FROM t;`,
			p.Name, fmtTS(begin), fmtTS(end), maskLight)
		res, err := execute(e, src)
		if err != nil {
			return fmt.Errorf("%s: %w", qid, err)
		}
		r := res.Releases[0]
		orig := p.Lights[0].RedSec
		acc := accuracy(r.Raw, orig, r.NoiseScale)
		cfg.printf("%-4s %-34s %-10s %11.1fs %11.1fs %8.2f%%  (noise scale %.3g)\n",
			qid, "red light duration", p.Name, orig, r.Value, acc*100, r.NoiseScale)
		sum.set(strings.ToLower(qid)+"_accuracy", acc)
		sum.set(strings.ToLower(qid)+"_noise", r.NoiseScale)
	}
	return nil
}

// runQ13 reproduces the stateful trajectory query: people entering
// from the south and exiting north, in 10-minute chunks.
func runQ13(cfg Config, sum *Summary) error {
	p := scene.Campus()
	cs := setupCamera(p, cfg.Seed, cfg.window())
	e, err := sceneEngine(cfg, cs, "south2north", south2north(p, cfg.Seed))
	if err != nil {
		return err
	}
	begin := cs.scene.Start
	end := begin.Add(cfg.window())
	src := fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 10min STRIDE 0sec WITH MASK %s INTO c;
PROCESS c USING south2north TIMEOUT 60sec PRODUCING 1 ROWS WITH SCHEMA (cnt:NUMBER=0) INTO t;
SELECT SUM(range(cnt, 0, 25)) FROM t;`,
		p.Name, fmtTS(begin), fmtTS(end), maskLinger)
	res, err := execute(e, src)
	if err != nil {
		return fmt.Errorf("Q13: %w", err)
	}
	r := res.Releases[0]

	// Baseline: the same pipeline over the whole (masked) window as a
	// single chunk — no chunking, no noise. cfg.Seed is the detector
	// seed chunkSeed gives a chunk starting at frame 0.
	entry, _ := cs.policyMap.Lookup(maskLinger)
	orig := float64(southToNorth(p, cfg.Seed, cs.scene.Frames, video.Masked(cs.source, entry.Mask).Frame))
	acc := accuracy(r.Raw, orig, r.NoiseScale)
	cfg.printf("%-4s %-34s %-10s %12.0f %12.0f %8.2f%%\n",
		"Q13", "people entering south, exiting north", p.Name, orig, r.Value, acc*100)
	sum.set("q13_accuracy", acc)
	return nil
}
