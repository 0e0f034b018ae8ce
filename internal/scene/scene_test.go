package scene

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/region"
	"privid/internal/video"
	"privid/internal/vtime"
)

func TestLightState(t *testing.T) {
	l := Light{RedSec: 30, GreenSec: 60, PhaseSec: 0}
	fps := vtime.FrameRate(10)
	cases := []struct {
		sec  float64
		want string
	}{{0, "red"}, {29.9, "red"}, {30, "green"}, {89.9, "green"}, {90, "red"}, {95, "red"}}
	for _, c := range cases {
		frame := int64(c.sec * 10)
		if got := l.StateAt(frame, fps); got != c.want {
			t.Errorf("StateAt(%gs)=%s, want %s", c.sec, got, c.want)
		}
	}
	// Phase offset shifts the cycle.
	l2 := Light{RedSec: 30, GreenSec: 60, PhaseSec: 30}
	if got := l2.StateAt(0, fps); got != "green" {
		t.Errorf("phase-shifted StateAt(0)=%s, want green", got)
	}
}

func TestPathInterpolation(t *testing.T) {
	p := NewPath(0, 101, 10, 20, 1.0,
		Waypoint{T: 0, P: geom.Point{X: 0, Y: 0}},
		Waypoint{T: 1, P: geom.Point{X: 100, Y: 0}},
	)
	if got := p.Box(0).Center(); got != (geom.Point{X: 0, Y: 0}) {
		t.Errorf("Box(0) center=%v", got)
	}
	if got := p.Box(100).Center(); got != (geom.Point{X: 100, Y: 0}) {
		t.Errorf("Box(100) center=%v", got)
	}
	if got := p.Box(50).Center(); got != (geom.Point{X: 50, Y: 0}) {
		t.Errorf("Box(50) center=%v", got)
	}
	if got := p.Box(0); got.W() != 10 || got.H() != 20 {
		t.Errorf("box size=%v", got)
	}
}

func TestPathLinger(t *testing.T) {
	// A path that pauses in the middle should have zero speed there.
	p := NewPath(0, 1001, 10, 10, 1.0,
		Waypoint{T: 0, P: geom.Point{X: 0, Y: 0}},
		Waypoint{T: 0.2, P: geom.Point{X: 50, Y: 50}},
		Waypoint{T: 0.8, P: geom.Point{X: 50, Y: 50}},
		Waypoint{T: 1, P: geom.Point{X: 100, Y: 100}},
	)
	mid := p.Box(500).Center()
	if mid.Dist(geom.Point{X: 50, Y: 50}) > 1e-9 {
		t.Errorf("mid position=%v", mid)
	}
	if got := p.Speed(500, 10); got != 0 {
		t.Errorf("linger speed=%v, want 0", got)
	}
	if got := p.Speed(100, 10); got <= 0 {
		t.Errorf("transit speed=%v, want >0", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(Campus(), 7, time.Hour)
	b := Generate(Campus(), 7, time.Hour)
	if len(a.Ents) != len(b.Ents) {
		t.Fatalf("entity counts differ: %d vs %d", len(a.Ents), len(b.Ents))
	}
	for i := range a.Ents {
		ea, eb := a.Ents[i], b.Ents[i]
		if ea.ID != eb.ID || ea.Class != eb.Class || len(ea.Appearances) != len(eb.Appearances) {
			t.Fatalf("entity %d differs", i)
		}
		for j := range ea.Appearances {
			if ea.Appearances[j].Enter != eb.Appearances[j].Enter ||
				ea.Appearances[j].Exit != eb.Appearances[j].Exit {
				t.Fatalf("entity %d appearance %d differs", i, j)
			}
		}
	}
	c := Generate(Campus(), 8, time.Hour)
	if len(c.Ents) == len(a.Ents) {
		// Different seeds will almost surely differ in count; if not,
		// check some appearance detail before declaring sameness.
		same := true
		for i := range a.Ents {
			if a.Ents[i].Appearances[0].Enter != c.Ents[i].Appearances[0].Enter {
				same = false
				break
			}
		}
		if same {
			t.Errorf("different seeds produced identical scenes")
		}
	}
}

func TestGenerateVolumes(t *testing.T) {
	// A 12-hour campus scene should land near the paper's ~1.4k
	// people, and highway near ~48.7k cars (within a loose factor).
	campus := Generate(Campus(), 1, 12*time.Hour)
	people := 0
	for _, e := range campus.Ents {
		if e.Class == video.Person {
			people++
		}
	}
	if people < 700 || people > 2800 {
		t.Errorf("campus people=%d, want ~1.4k", people)
	}

	hw := Generate(Highway(), 1, 12*time.Hour)
	cars := 0
	for _, e := range hw.Ents {
		if e.Class == video.Car {
			cars++
		}
	}
	if cars < 25000 || cars > 90000 {
		t.Errorf("highway cars=%d, want ~48.7k", cars)
	}
}

func TestAtVisibility(t *testing.T) {
	s := Generate(Urban(), 3, 30*time.Minute)
	// Every observation returned by At must actually be within its
	// appearance interval and inside (or near) the frame.
	frames := []int64{0, s.Frames / 4, s.Frames / 2, s.Frames - 1}
	for _, f := range frames {
		obs := s.At(f)
		for _, o := range obs {
			if o.Class.Private() && o.Box.Empty() {
				t.Errorf("frame %d: empty box for entity %d", f, o.EntityID)
			}
		}
		// Lights and trees must always be present.
		var lights, trees int
		for _, o := range obs {
			switch o.Class {
			case video.TrafficLight:
				lights++
				if o.State != "red" && o.State != "green" {
					t.Errorf("bad light state %q", o.State)
				}
			case video.Tree:
				trees++
			}
		}
		if lights != len(s.Lights) || trees != len(s.Trees) {
			t.Errorf("frame %d: %d lights %d trees, want %d/%d", f, lights, trees, len(s.Lights), len(s.Trees))
		}
	}
}

func TestAtMatchesAppearances(t *testing.T) {
	s := Generate(Campus(), 5, 20*time.Minute)
	// Cross-check At against a brute-force scan for several frames.
	for _, f := range []int64{100, 5000, s.Frames - 100} {
		want := map[int]bool{}
		for _, e := range s.Ents {
			for _, a := range e.Appearances {
				if f >= a.Enter && f < a.Exit {
					want[e.ID] = true
				}
			}
		}
		got := map[int]bool{}
		for _, o := range s.At(f) {
			if o.Class.Private() {
				got[o.EntityID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: At returned %d entities, brute force %d", f, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("frame %d: entity %d missing from At", f, id)
			}
		}
	}
}

func TestMaxDurationAndK(t *testing.T) {
	s := &Scene{Name: "t", W: 100, H: 100, FPS: 10, Frames: 10000}
	mk := func(id int, ivs ...[2]int64) *Entity {
		e := &Entity{ID: id, Class: video.Person}
		for _, iv := range ivs {
			e.Appearances = append(e.Appearances, Appearance{
				Enter: iv[0], Exit: iv[1],
				Traj: NewPath(iv[0], iv[1], 10, 10, 1, Waypoint{T: 0, P: geom.Point{X: 50, Y: 50}}),
			})
		}
		return e
	}
	s.Ents = []*Entity{
		mk(0, [2]int64{0, 300}, [2]int64{1000, 1100}), // 30s + 10s, K=2
		mk(1, [2]int64{2000, 2500}),                   // 50s, K=1
	}
	s.BuildIndex()
	if got := s.MaxDurationSeconds(s.Bounds()); got != 50 {
		t.Errorf("MaxDurationSeconds=%v, want 50", got)
	}
	if got := s.MaxDurationSeconds(vtime.NewInterval(0, 100)); got != 10 {
		t.Errorf("clipped MaxDurationSeconds=%v, want 10", got)
	}
}

func TestHeavyTail(t *testing.T) {
	// Campus persistence must be heavy-tailed: the max should be many
	// times the median (Fig. 4).
	s := Generate(Campus(), 11, 12*time.Hour)
	var durs []int64
	for _, e := range s.Ents {
		if e.Class != video.Person {
			continue
		}
		var longest int64 // the person's longest single appearance
		for _, a := range e.Appearances {
			if l := a.Interval().Len(); l > longest {
				longest = l
			}
		}
		durs = append(durs, longest)
	}
	if len(durs) < 100 {
		t.Fatalf("too few people: %d", len(durs))
	}
	var max, sum int64
	for _, d := range durs {
		if d > max {
			max = d
		}
		sum += d
	}
	mean := float64(sum) / float64(len(durs))
	if float64(max) < 5*mean {
		t.Errorf("campus persistence not heavy-tailed: max=%d mean=%.1f", max, mean)
	}
}

func TestDiurnalInterpolation(t *testing.T) {
	d := diurnal([2]float64{0, 0}, [2]float64{12, 1})
	if d[0] != 0 || d[12] != 1 {
		t.Fatalf("anchors not respected: %v", d)
	}
	if d[6] <= d[3] || d[3] <= d[0] {
		t.Errorf("not monotone on rising segment: %v", d[:13])
	}
	f := flat()
	for _, v := range f {
		if v != 1 {
			t.Fatalf("flat()=%v", f)
		}
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	want := []string{"campus", "highway", "urban", "grand-canal", "venice-rialto", "taipei", "shibuya", "beach", "warsaw", "uav"}
	if len(ps) != len(want) {
		t.Fatalf("got %d profiles, want %d", len(ps), len(want))
	}
	for _, name := range want {
		p, ok := ps[name]
		if !ok {
			t.Errorf("missing profile %q", name)
			continue
		}
		if p.W <= 0 || p.H <= 0 || p.FPS <= 0 || len(p.Arrivals) == 0 {
			t.Errorf("profile %q incomplete", name)
		}
		if p.DetectBase <= 0 || p.DetectBase > 1 {
			t.Errorf("profile %q DetectBase=%v", name, p.DetectBase)
		}
	}
}

func TestFrameSchemesScaling(t *testing.T) {
	p := Profile{W: 1280, H: 720, Schemes: []region.Scheme{{Name: "halves", Hard: true, Regions: []region.Named{
		{Name: "left", Rect: geom.Rect{X0: 0, Y0: 0, X1: 0.5, Y1: 1}},
		{Name: "right", Rect: geom.Rect{X0: 0.5, Y0: 0, X1: 1, Y1: 1}},
	}}}}
	s, ok := p.FrameSchemes()["halves"]
	if !ok || !s.Hard || len(s.Regions) != 2 {
		t.Fatalf("scheme: %+v", s)
	}
	if s.Regions[0].Rect != (geom.Rect{X0: 0, Y0: 0, X1: 640, Y1: 720}) {
		t.Errorf("left rect: %v", s.Regions[0].Rect)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
	if p.Schemes[0].Regions[0].Rect.X1 != 0.5 {
		t.Errorf("scaling wrote through to the profile: %v", p.Schemes[0].Regions[0].Rect)
	}
}

func TestSceneSource(t *testing.T) {
	s := &Scene{Name: "t", W: 100, H: 100, FPS: 10, Frames: 1000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	for id, iv := range [][2]int64{{100, 200}, {150, 400}} {
		s.Ents = append(s.Ents, &Entity{ID: id, Class: video.Person, Appearances: []Appearance{{
			Enter: iv[0], Exit: iv[1],
			Traj: NewPath(iv[0], iv[1], 10, 10, 1, Waypoint{T: 0, P: geom.Point{X: 50, Y: 50}}, Waypoint{T: 1, P: geom.Point{X: 50, Y: 50}}),
		}}})
	}
	s.BuildIndex()
	src := s.Source("camA")
	info := src.Info()
	if info.Camera != "camA" || info.Frames != 1000 || info.FPS != 10 || !info.Start.Equal(s.Start) {
		t.Fatalf("bad info: %+v", info)
	}
	if got := len(src.Frame(50).Objects); got != 0 {
		t.Errorf("frame 50 has %d objects, want 0", got)
	}
	if f := src.Frame(160); f.Index != 160 || len(f.Objects) != 2 {
		t.Errorf("frame 160 = index %d with %d objects, want 160 with 2", f.Index, len(f.Objects))
	}
}
