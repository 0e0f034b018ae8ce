package cv

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/scene"
	"privid/internal/video"
	"privid/internal/vtime"
)

func perfectParams() DetectorParams {
	return DetectorParams{Base: 1.0, SizeRefArea: 0, FalsePosRate: 0, JitterPx: 0}
}

// walkScene builds a scene with one person walking left to right for
// [enter, exit).
func walkScene(enter, exit, frames int64) *scene.Scene {
	s := &scene.Scene{Name: "w", W: 1000, H: 100, FPS: 10, Frames: frames,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	s.Ents = []*scene.Entity{{
		ID: 0, Class: video.Person,
		Appearances: []scene.Appearance{{
			Enter: enter, Exit: exit,
			Traj: scene.NewPath(enter, exit, 20, 40, 1,
				scene.Waypoint{T: 0, P: geom.Point{X: 10, Y: 50}},
				scene.Waypoint{T: 1, P: geom.Point{X: 990, Y: 50}}),
		}},
	}}
	s.BuildIndex()
	return s
}

func TestDetectorPerfect(t *testing.T) {
	s := walkScene(0, 100, 100)
	src := s.Source("c")
	d := NewDetector(perfectParams(), 1000, 100, 1)
	for _, f := range []int64{0, 50, 99} {
		dets := d.Detect(src.Frame(f))
		if len(dets) != 1 {
			t.Fatalf("frame %d: %d detections, want 1", f, len(dets))
		}
		if dets[0].FalsePositive {
			t.Errorf("true object flagged as false positive")
		}
	}
	if dets := d.Detect(src.Frame(0)); dets[0].Class != video.Person {
		t.Errorf("wrong class %v", dets[0].Class)
	}
}

func TestDetectorMissRate(t *testing.T) {
	s := walkScene(0, 5000, 5000)
	src := s.Source("c")
	p := perfectParams()
	p.Base = 0.7
	d := NewDetector(p, 1000, 100, 42)
	hits := 0
	for f := int64(0); f < 5000; f++ {
		hits += len(d.Detect(src.Frame(f)))
	}
	rate := float64(hits) / 5000
	if rate < 0.65 || rate > 0.75 {
		t.Errorf("empirical detection rate %.3f, want ~0.7", rate)
	}
}

func TestDetectorCrowdPenalty(t *testing.T) {
	// Two frames: 1 object vs 31 objects; crowding must lower per-
	// object detection probability.
	mkFrame := func(n int) video.Frame {
		f := video.Frame{Index: 0}
		for i := 0; i < n; i++ {
			f.Objects = append(f.Objects, video.Observation{
				EntityID: i, Class: video.Person,
				Box: geom.RectAround(geom.Point{X: float64(30 * (i + 1)), Y: 50}, 20, 40),
			})
		}
		return f
	}
	p := perfectParams()
	p.Base = 0.9
	p.CrowdPenalty = 0.1
	trials := 2000
	rate := func(n int) float64 {
		d := NewDetector(p, 1000, 100, 7)
		hits := 0
		for i := 0; i < trials; i++ {
			hits += len(d.Detect(mkFrame(n)))
		}
		return float64(hits) / float64(trials*n)
	}
	sparse, dense := rate(1), rate(31)
	if dense >= sparse-0.1 {
		t.Errorf("crowding should hurt: sparse=%.3f dense=%.3f", sparse, dense)
	}
}

func TestDetectorIgnoresSceneElements(t *testing.T) {
	f := video.Frame{Objects: []video.Observation{
		{EntityID: -1, Class: video.TrafficLight, Box: geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 80}, State: "red"},
		{EntityID: -1, Class: video.Tree, Box: geom.Rect{X0: 100, Y0: 0, X1: 200, Y1: 80}},
	}}
	d := NewDetector(perfectParams(), 1000, 100, 1)
	if dets := d.Detect(f); len(dets) != 0 {
		t.Errorf("detector returned %d detections for scene elements", len(dets))
	}
}

func TestTrackerSingleObject(t *testing.T) {
	s := walkScene(0, 200, 200)
	src := s.Source("c")
	d := NewDetector(perfectParams(), 1000, 100, 1)
	trk := NewTracker(TrackerParams{IoUThreshold: 0.2, MaxAge: 10, MinHits: 3})
	for f := int64(0); f < 200; f++ {
		trk.Observe(f, d.Detect(src.Frame(f)))
	}
	tracks := trk.Flush()
	if len(tracks) != 1 {
		t.Fatalf("%d tracks, want 1", len(tracks))
	}
	if tracks[0].Frames() < 190 {
		t.Errorf("track spans %d frames, want ~200", tracks[0].Frames())
	}
}

func TestTrackerBridgesGaps(t *testing.T) {
	// Miss every other frame: with MaxAge large enough the tracker
	// must produce a single track covering the full span.
	s := walkScene(0, 300, 300)
	src := s.Source("c")
	d := NewDetector(perfectParams(), 1000, 100, 1)
	trk := NewTracker(TrackerParams{IoUThreshold: 0.15, MaxAge: 20, MinHits: 3})
	for f := int64(0); f < 300; f++ {
		var dets []Detection
		if f%3 == 0 { // 67% of frames missed
			dets = d.Detect(src.Frame(f))
		}
		trk.Observe(f, dets)
	}
	tracks := trk.Flush()
	if len(tracks) != 1 {
		t.Fatalf("%d tracks, want 1 (gaps should be bridged)", len(tracks))
	}
	if tracks[0].Frames() < 280 {
		t.Errorf("bridged track spans %d frames", tracks[0].Frames())
	}
}

func TestTrackerMinHits(t *testing.T) {
	trk := NewTracker(TrackerParams{IoUThreshold: 0.3, MaxAge: 5, MinHits: 3})
	// A detection seen only twice must be suppressed.
	box := geom.Rect{X0: 10, Y0: 10, X1: 30, Y1: 30}
	trk.Observe(0, []Detection{{Frame: 0, Box: box, Class: video.Person}})
	trk.Observe(1, []Detection{{Frame: 1, Box: box, Class: video.Person}})
	for f := int64(2); f < 20; f++ {
		trk.Observe(f, nil)
	}
	if tracks := trk.Flush(); len(tracks) != 0 {
		t.Errorf("short track not suppressed: %+v", tracks)
	}
}

func TestTrackerSeparatesDistantObjects(t *testing.T) {
	trk := NewTracker(TrackerParams{IoUThreshold: 0.3, MaxAge: 5, MinHits: 1})
	a := geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20}
	b := geom.Rect{X0: 500, Y0: 500, X1: 520, Y1: 520}
	for f := int64(0); f < 10; f++ {
		trk.Observe(f, []Detection{
			{Frame: f, Box: a, Class: video.Person},
			{Frame: f, Box: b, Class: video.Person},
		})
	}
	if tracks := trk.Flush(); len(tracks) != 2 {
		t.Errorf("%d tracks, want 2", len(tracks))
	}
}

func TestEstimateConservative(t *testing.T) {
	// The core Table 1 property: the CV estimate of max duration must
	// be >= ground truth even with a lossy detector, across seeds.
	for seed := int64(0); seed < 5; seed++ {
		p := scene.Campus()
		s := scene.Generate(p, seed, 10*time.Minute)
		src := s.Source("campus")
		gt := s.MaxDurationSeconds(s.Bounds())
		if gt == 0 {
			continue
		}
		rep := EstimateDurations(src, s.Bounds(), ParamsFor(p), OwnerTracker(), seed, 1)
		if rep.MaxSeconds < gt*0.9 {
			t.Errorf("seed %d: CV estimate %.1fs < ground truth %.1fs", seed, rep.MaxSeconds, gt)
		}
		if rep.VisibleObjects == 0 || rep.DetectedObjects == 0 {
			t.Errorf("seed %d: empty stats %+v", seed, rep)
		}
	}
}

func TestMissedFraction(t *testing.T) {
	r := DurationReport{VisibleObjects: 100, DetectedObjects: 71}
	if got := r.MissedFraction(); got != 0.29 {
		t.Errorf("MissedFraction=%v, want 0.29", got)
	}
	r2 := DurationReport{VisibleObjects: 0}
	if got := r2.MissedFraction(); got != 0 {
		t.Errorf("empty MissedFraction=%v", got)
	}
	r3 := DurationReport{VisibleObjects: 10, DetectedObjects: 15}
	if got := r3.MissedFraction(); got != 0 {
		t.Errorf("over-detection MissedFraction=%v, want clamped 0", got)
	}
}

func TestDurationSeconds(t *testing.T) {
	r := DurationReport{Tracks: []Track{
		{First: 0, Last: 99},
		{First: 10, Last: 10},
	}}
	ds := r.DurationSeconds(vtime.FrameRate(10))
	if len(ds) != 2 || ds[0] != 10 || ds[1] != 0.1 {
		t.Errorf("DurationSeconds=%v", ds)
	}
}
