package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"privid/internal/core"
	"privid/internal/cv"
	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/sandbox"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// sceneCache memoizes generated scenes across experiments (generation
// of a 12 h highway scene is the dominant setup cost).
var sceneCache sync.Map // key -> *scene.Scene

func sceneFor(p scene.Profile, seed int64, dur time.Duration) *scene.Scene {
	key := fmt.Sprintf("%s/%d/%d", p.Name, seed, dur)
	if v, ok := sceneCache.Load(key); ok {
		return v.(*scene.Scene)
	}
	s := scene.Generate(p, seed, dur)
	actual, _ := sceneCache.LoadOrStore(key, s)
	return actual.(*scene.Scene)
}

// camSetup is one evaluation camera: its scene, published mask ladder
// (unmasked + linger mask + light-only mask), and effective policies.
type camSetup struct {
	profile scene.Profile
	scene   *scene.Scene
	source  video.Source
	grid    geom.Grid

	// policy is the unmasked (ρ, K).
	policy policy.Policy
	// lingerPolicy is the (smaller ρ) policy under the linger mask.
	lingerPolicy policy.Policy
	policyMap    *mask.PolicyMap
}

const (
	maskLinger = "linger" // masks the profile's linger/parking regions
	maskLight  = "light"  // masks everything except the traffic light
)

// policyK returns the K bound for a profile: 2 when entities can
// reappear, 1 otherwise.
func policyK(p scene.Profile) int {
	if p.ReturnProb > 0 {
		return 2
	}
	return 1
}

// lingerMask masks the profile's linger spots and parking areas — the
// Fig. 3 masks, constructed from the owner's domain knowledge. Each
// region is grown by a margin so objects dwelling at its edge are
// fully covered (an object survives masking if ≥40% of its box stays
// visible).
func lingerMask(p scene.Profile, grid geom.Grid) *mask.Mask {
	const margin = 30 // pixels
	grow := func(r geom.Rect) geom.Rect {
		return geom.Rect{X0: r.X0 - margin, Y0: r.Y0 - margin, X1: r.X1 + margin, Y1: r.Y1 + margin}
	}
	var rects []geom.Rect
	for _, ls := range p.LingerSpots {
		rects = append(rects, grow(ls.Rect))
	}
	for _, pk := range p.Parked {
		rects = append(rects, grow(pk.Spot))
	}
	return mask.FromRects(grid, rects...)
}

// rhoUnder estimates the max observable duration (seconds) under a
// mask by sampling ground truth once per second, with a one-sample
// safety margin (the owner-side calibration of §5.2; Table 1 shows the
// CV path bounds this conservatively).
func rhoUnder(s *scene.Scene, m *mask.Mask) time.Duration {
	stride := int64(s.FPS)
	stats := scene.PersistenceUnderMask(s, m, s.Bounds(), stride)
	maxFrames, _ := mask.MaxVisible(stats)
	secs := float64(maxFrames+1) * float64(stride) / float64(s.FPS)
	return time.Duration(secs * float64(time.Second))
}

var setupCache sync.Map // key -> *camSetup

// setupCamera generates (and caches) the full owner-side registration
// for one profile at one scale.
func setupCamera(p scene.Profile, seed int64, dur time.Duration) *camSetup {
	key := fmt.Sprintf("%s/%d/%d", p.Name, seed, dur)
	if v, ok := setupCache.Load(key); ok {
		return v.(*camSetup)
	}
	s := sceneFor(p, seed, dur)
	grid := geom.NewGrid(s.W, s.H, 10, 10)
	k := policyK(p)

	cs := &camSetup{
		profile: p,
		scene:   s,
		source:  s.Source(p.Name),
		grid:    grid,
	}
	cs.policy = policy.Policy{Rho: rhoUnder(s, nil), K: k}

	lm := lingerMask(p, grid)
	cs.lingerPolicy = policy.Policy{Rho: rhoUnder(s, lm), K: k}
	pm := &mask.PolicyMap{Camera: p.Name}
	pm.Entries = append(pm.Entries, mask.PolicyEntry{ID: maskLinger, Mask: lm, Policy: cs.lingerPolicy})
	// The Case 4 mask: everything except the traffic light(s) is
	// blacked out, so no private object is observable at all (ρ=0).
	if len(p.Lights) > 0 {
		var lightRects []geom.Rect
		for _, l := range p.Lights {
			lightRects = append(lightRects, l.Box)
		}
		lightMask := mask.FromRects(grid, lightRects...).Invert()
		pm.Entries = append(pm.Entries, mask.PolicyEntry{
			ID: maskLight, Mask: lightMask,
			Policy: policy.Policy{Rho: 0, K: k},
		})
	}
	cs.policyMap = pm
	actual, _ := setupCache.LoadOrStore(key, cs)
	return actual.(*camSetup)
}

// newEngine returns an evaluation-mode engine seeded from the config.
func newEngine(cfg Config) *core.Engine {
	return core.New(core.Options{
		Seed:        cfg.Seed + 1000,
		Evaluation:  true,
		Parallelism: runtime.NumCPU(),
	})
}

// execute parses and runs one program.
func execute(e *core.Engine, src string) (*core.Result, error) {
	prog, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Execute(prog)
}

// sceneEngine returns an evaluation engine with cs's camera and one
// executable registered.
func sceneEngine(cfg Config, cs *camSetup, exe string, fn sandbox.ProcessFunc) (*core.Engine, error) {
	e := newEngine(cfg)
	if err := registerSceneCamera(e, cs); err != nil {
		return nil, err
	}
	return e, e.Registry().Register(exe, fn)
}

// registerSceneCamera registers one profile camera with a generous
// per-frame budget (experiments run many queries over the same video).
func registerSceneCamera(e *core.Engine, cs *camSetup) error {
	return e.RegisterCamera(core.CameraConfig{
		Name:     cs.profile.Name,
		Source:   cs.source,
		Policy:   cs.policy,
		Epsilon:  1e6,
		Policies: cs.policyMap,
		Schemes:  cs.profile.FrameSchemes(),
	})
}

// Analyst processing code (registered as the query's "executables").

// chunkSeed derives a deterministic per-chunk RNG seed: isolated
// instantiations must not share randomness across chunks (Appendix B),
// but the same chunk must process identically across runs.
func chunkSeed(base int64, chunk *video.Chunk) int64 {
	return base ^ chunk.Interval.Start*2654435761 ^ int64(len(chunk.Region))<<32
}

// analystTracker is the tracker configuration inside the analyst's
// processing code. The same configuration runs in the unchunked
// baseline so that accuracy comparisons isolate Privid's chunking and
// noise (the paper's baseline is "the same exact query implementation
// without Privid").
func analystTracker() cv.TrackerParams {
	return cv.TrackerParams{IoUThreshold: 0.2, MaxAge: 30, MinHits: 2, DistGate: 50}
}

// trackChunk runs the analyst's detector+tracker over one chunk.
func trackChunk(p scene.Profile, seed int64, chunk *video.Chunk) []cv.Track {
	det := cv.NewDetector(cv.ParamsFor(p), p.W, p.H, chunkSeed(seed, chunk))
	trk := cv.NewTracker(analystTracker())
	for f := int64(0); f < chunk.Len(); f++ {
		frame := chunk.Frame(f)
		trk.Observe(frame.Index, det.Detect(frame))
	}
	return trk.Flush()
}

// entrantCounter is the §6.2 pattern for counting objects without
// global IDs: a chunk emits one row per track that *starts* within the
// chunk, so each appearance yields exactly one row across all chunks.
// The three-second margin keeps objects carried over from the previous
// chunk but first *detected* late (high-miss-rate video) from being
// recounted: the chance of a carried object evading detection for 3 s
// is negligible even at urban's miss rate.
func entrantCounter(p scene.Profile, seed int64) sandbox.ProcessFunc {
	margin := entrantMargin(p)
	return func(chunk *video.Chunk) []table.Row {
		var rows []table.Row
		for _, tr := range trackChunk(p, seed, chunk) {
			if tr.First >= chunk.Interval.Start+margin {
				rows = append(rows, table.Row{table.N(1)})
			}
		}
		return rows
	}
}

// entrantMargin sizes the carried-over screening window from the
// detector's per-frame hit rate: long enough that a carried object is
// detected before it with ≥98% probability, short enough not to drop
// many true entrants.
func entrantMargin(p scene.Profile) int64 {
	pEff := p.DetectBase - 0.15
	if pEff < 0.05 {
		pEff = 0.05
	}
	n := int64(math.Ceil(math.Log(0.02) / math.Log(1-pEff)))
	if n < 2 {
		n = 2
	}
	if max := int64(p.FPS) * 3; n > max {
		n = max
	}
	return n
}

// treeReader reports each tree's foliage state (100 = leaves, 0 =
// bare) from a single frame — Q7-Q9's processing.
func treeReader() sandbox.ProcessFunc {
	return func(chunk *video.Chunk) []table.Row {
		var rows []table.Row
		for _, o := range chunk.Frame(0).Objects {
			if o.Class != video.Tree {
				continue
			}
			v := 0.0
			if o.State == "leaves" {
				v = 100
			}
			rows = append(rows, table.Row{table.N(v)})
		}
		return rows
	}
}

// redLightMeter measures the mean duration of complete red phases
// within the chunk — Q10-Q12's processing.
func redLightMeter(fps vtime.FrameRate) sandbox.ProcessFunc {
	return func(chunk *video.Chunk) []table.Row {
		var reds []float64
		inRed := false
		var redStart int64
		started := false // saw a green before the current red
		for f := int64(0); f < chunk.Len(); f++ {
			state := ""
			for _, o := range chunk.Frame(f).Objects {
				if o.Class == video.TrafficLight {
					state = o.State
					break
				}
			}
			switch {
			case state == "red" && !inRed:
				inRed = true
				redStart = f
			case state == "green" && inRed:
				if started {
					reds = append(reds, float64(f-redStart)/float64(fps))
				}
				inRed = false
				started = true
			case state == "green":
				started = true
			}
		}
		if len(reds) == 0 {
			return nil
		}
		var sum float64
		for _, r := range reds {
			sum += r
		}
		return []table.Row{{table.N(sum / float64(len(reds)))}}
	}
}

// south2north is Q13's executable: one row holding the chunk's count
// of south-to-north walkers, capped at 25 (Table 3: sum with range
// (0, 25)).
func south2north(p scene.Profile, seed int64) sandbox.ProcessFunc {
	return func(chunk *video.Chunk) []table.Row {
		n := min(southToNorth(p, chunkSeed(seed, chunk), chunk.Len(), chunk.Frame), 25)
		return []table.Row{{table.N(float64(n))}}
	}
}

// southToNorth counts people whose trajectory over the n frames frame
// returns enters from the south edge and exits toward the north —
// Q13's stateful processing, which needs chunks long enough to contain
// whole trajectories. detSeed seeds the detector.
func southToNorth(p scene.Profile, detSeed, n int64, frame func(int64) video.Frame) int {
	det := cv.NewDetector(cv.ParamsFor(p), p.W, p.H, detSeed)
	trk := cv.NewTracker(cv.TrackerParams{IoUThreshold: 0.2, MaxAge: 30, MinHits: 3, DistGate: 50})
	// Each track's first/last Y is approximated by the detections at
	// its boundary frames, so detections are collected per frame first.
	type det2 struct {
		frame int64
		y     float64
	}
	var all []det2
	for f := int64(0); f < n; f++ {
		fr := frame(f)
		ds := det.Detect(fr)
		trk.Observe(fr.Index, ds)
		for _, d := range ds {
			all = append(all, det2{fr.Index, d.Box.Center().Y})
		}
	}
	count := 0
	for _, tr := range trk.Flush() {
		firstY, lastY := -1.0, -1.0
		for _, d := range all {
			if d.frame == tr.First && firstY < 0 {
				firstY = d.y
			}
			if d.frame == tr.Last {
				lastY = d.y
			}
		}
		// Entered near the south (bottom) edge, exited in the northern
		// half heading north.
		if firstY >= 0 && lastY >= 0 && firstY > p.H*0.7 && lastY < p.H*0.45 {
			count++
		}
	}
	return count
}

// Baselines ("Original" in Fig. 5): the same analyst pipeline run
// without Privid — no chunking, no masking, no noise.

// baselineHourly counts new tracks per hour over the whole scene in
// one unchunked pass.
func baselineHourly(cs *camSetup, seed int64) []float64 {
	p := cs.profile
	det := cv.NewDetector(cv.ParamsFor(p), p.W, p.H, seed)
	trk := cv.NewTracker(analystTracker())
	for f := int64(0); f < cs.scene.Frames; f++ {
		trk.Observe(f, det.Detect(cs.source.Frame(f)))
	}
	hourFrames := int64(cs.scene.FPS) * 3600
	out := make([]float64, (cs.scene.Frames+hourFrames-1)/hourFrames)
	for _, tr := range trk.Flush() {
		if h := int(tr.First / hourFrames); h >= 0 && h < len(out) {
			out[h]++
		}
	}
	return out
}
