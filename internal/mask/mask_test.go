package mask_test

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/mask"
	"privid/internal/scene"
	"privid/internal/video"
	"privid/internal/vtime"
)

func grid100() geom.Grid { return geom.NewGrid(100, 100, 10, 10) }

func TestMaskBasics(t *testing.T) {
	m := mask.New(grid100())
	if m.Count() != 0 || m.Fraction() != 0 {
		t.Fatalf("new mask not empty")
	}
	m.Set(geom.Cell{Col: 0, Row: 0})
	m.Set(geom.Cell{Col: 5, Row: 5})
	m.Set(geom.Cell{Col: 5, Row: 5}) // idempotent
	if m.Count() != 2 {
		t.Errorf("Count=%d, want 2", m.Count())
	}
	if !m.Masked(geom.Cell{Col: 5, Row: 5}) || m.Masked(geom.Cell{Col: 1, Row: 1}) {
		t.Errorf("Masked wrong")
	}
	if m.Fraction() != 0.02 {
		t.Errorf("Fraction=%v", m.Fraction())
	}
}

func TestFromRectsAndCovered(t *testing.T) {
	// Mask the left half of the frame.
	m := mask.FromRects(grid100(), geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100})
	if m.Count() != 50 {
		t.Fatalf("Count=%d, want 50", m.Count())
	}
	// A box fully inside the masked area.
	if got := m.CoveredFraction(geom.Rect{X0: 10, Y0: 10, X1: 30, Y1: 30}); got != 1 {
		t.Errorf("fully covered = %v", got)
	}
	// A box straddling the boundary 50/50.
	if got := m.CoveredFraction(geom.Rect{X0: 40, Y0: 10, X1: 60, Y1: 30}); got != 0.5 {
		t.Errorf("half covered = %v", got)
	}
	// Visibility rule: needs >= 40% unmasked.
	if m.Visible(geom.Rect{X0: 10, Y0: 10, X1: 30, Y1: 30}) {
		t.Errorf("fully covered box should be invisible")
	}
	if !m.Visible(geom.Rect{X0: 40, Y0: 10, X1: 60, Y1: 30}) {
		t.Errorf("half-covered box should be visible (50%% >= 40%%)")
	}
	if !m.Visible(geom.Rect{X0: 60, Y0: 10, X1: 80, Y1: 30}) {
		t.Errorf("uncovered box should be visible")
	}
}

// TestCoveredFractionAllocatesNothing: every masked frame asks
// CoveredFraction of every object, so the cell walk must not allocate.
func TestCoveredFractionAllocatesNothing(t *testing.T) {
	m := mask.FromRects(grid100(), geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100})
	box := geom.Rect{X0: 12, Y0: 7, X1: 68, Y1: 43} // 6×5 cells, half masked
	var got float64
	if n := testing.AllocsPerRun(100, func() { got = m.CoveredFraction(box) }); n != 0 {
		t.Errorf("CoveredFraction made %v allocations, want 0", n)
	}
	if want := 38.0 * 36 / (56 * 36); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}

func TestInvert(t *testing.T) {
	m := mask.FromRects(grid100(), geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 30})
	inv := m.Invert()
	if m.Count()+inv.Count() != grid100().NumCells() {
		t.Fatalf("invert counts: %d + %d != %d", m.Count(), inv.Count(), grid100().NumCells())
	}
	c := geom.Cell{Col: 1, Row: 1}
	if m.Masked(c) == inv.Masked(c) {
		t.Errorf("cell masked in both or neither")
	}
}

func TestClone(t *testing.T) {
	m := mask.New(grid100())
	m.Set(geom.Cell{Col: 1, Row: 1})
	c := m.Clone()
	c.Set(geom.Cell{Col: 2, Row: 2})
	if m.Count() != 1 || c.Count() != 2 {
		t.Errorf("clone not independent: %d, %d", m.Count(), c.Count())
	}
}

// lingerScene builds a scene with transit walkers plus one long
// lingerer pinned at a fixed spot — the shape masking exploits.
func lingerScene() *scene.Scene {
	s := &scene.Scene{Name: "l", W: 100, H: 100, FPS: 10, Frames: 20000,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)}
	id := 0
	add := func(enter, exit int64, pts ...scene.Waypoint) {
		s.Ents = append(s.Ents, &scene.Entity{
			ID: id, Class: video.Person,
			Appearances: []scene.Appearance{{
				Enter: enter, Exit: exit,
				Traj: scene.NewPath(enter, exit, 8, 8, 1, pts...),
			}},
		})
		id++
	}
	// 20 transits of 200 frames each across the middle.
	for i := 0; i < 20; i++ {
		start := int64(i * 500)
		add(start, start+200,
			scene.Waypoint{T: 0, P: geom.Point{X: 2, Y: 50}},
			scene.Waypoint{T: 1, P: geom.Point{X: 98, Y: 50}})
	}
	// One bench sitter: 10000 frames parked at (85, 85).
	add(1000, 11000,
		scene.Waypoint{T: 0, P: geom.Point{X: 85, Y: 85}},
		scene.Waypoint{T: 1, P: geom.Point{X: 85, Y: 85}})
	s.BuildIndex()
	return s
}

func TestCollectPresenceAndHeatmap(t *testing.T) {
	s := lingerScene()
	g := grid100()
	pres := scene.CollectPresence(s, g, s.Bounds(), 10)
	if len(pres) != 21 {
		t.Fatalf("presence tracks=%d, want 21", len(pres))
	}
	heat := mask.Heatmap(pres, g)
	// The bench cell must dominate the heatmap.
	benchCell, _ := g.CellOf(geom.Point{X: 85, Y: 85})
	benchHeat := heat[g.Index(benchCell)]
	maxOther := 0.0
	for i, h := range heat {
		if i != g.Index(benchCell) && h > maxOther {
			maxOther = h
		}
	}
	if benchHeat <= maxOther {
		t.Errorf("bench heat %v not dominant (max other %v)", benchHeat, maxOther)
	}
}

func TestPersistenceUnderMask(t *testing.T) {
	s := lingerScene()
	stats := scene.PersistenceUnderMask(s, nil, s.Bounds(), 10)
	maxNoMask, retained := mask.MaxVisible(stats)
	if retained != 1 {
		t.Fatalf("no mask should retain all identities, got %v", retained)
	}
	if maxNoMask < 900 {
		t.Fatalf("unmasked max persistence=%d, want ~1000 sampled frames", maxNoMask)
	}
	// Mask the bench corner: max persistence collapses to transits.
	m := mask.FromRects(grid100(), geom.Rect{X0: 70, Y0: 70, X1: 100, Y1: 100})
	stats2 := scene.PersistenceUnderMask(s, m, s.Bounds(), 10)
	maxMasked, retained2 := mask.MaxVisible(stats2)
	if maxMasked > 40 {
		t.Errorf("masked max persistence=%d, want ~20 (transit length)", maxMasked)
	}
	// All transits survive; the lingerer is hidden.
	if retained2 < 0.9 || retained2 >= 1 {
		t.Errorf("retained=%v, want 20/21", retained2)
	}
	if maxNoMask/maxMasked < 10 {
		t.Errorf("mask reduction %dx, want >=10x", maxNoMask/maxMasked)
	}
}

func TestGreedyOrder(t *testing.T) {
	s := lingerScene()
	g := grid100()
	pres := scene.CollectPresence(s, g, s.Bounds(), 10)
	steps := mask.GreedyOrder(pres, g)
	if len(steps) == 0 {
		t.Fatal("no greedy steps")
	}
	// The first masked cell must be the bench (largest persistence).
	benchCell, _ := g.CellOf(geom.Point{X: 85, Y: 85})
	if steps[0].Cell != benchCell {
		t.Errorf("first greedy cell=%v, want bench %v", steps[0].Cell, benchCell)
	}
	// Max persistence must be non-increasing along the steps.
	for i := 1; i < len(steps); i++ {
		if steps[i].MaxPersistence > steps[i-1].MaxPersistence {
			t.Fatalf("step %d persistence increased: %d -> %d", i, steps[i-1].MaxPersistence, steps[i].MaxPersistence)
		}
	}
	// Identities retained must be non-increasing.
	for i := 1; i < len(steps); i++ {
		if steps[i].IdentitiesRetained > steps[i-1].IdentitiesRetained+1e-12 {
			t.Fatalf("step %d identities increased", i)
		}
	}
	// The final step should have eliminated everything.
	if last := steps[len(steps)-1]; last.MaxPersistence != 0 || last.IdentitiesRetained != 0 {
		t.Errorf("final step = %+v, want all masked", last)
	}
	// Masking the single bench cell should already cut max persistence
	// to the transit scale.
	if steps[0].MaxPersistence > 40 {
		t.Errorf("after first cell, max persistence=%d, want transit scale", steps[0].MaxPersistence)
	}
}

func TestMaskForTarget(t *testing.T) {
	s := lingerScene()
	g := grid100()
	pres := scene.CollectPresence(s, g, s.Bounds(), 10)
	steps := mask.GreedyOrder(pres, g)
	m, st := mask.MaskForTarget(steps, g, 40)
	if st.MaxPersistence > 40 {
		t.Errorf("target not reached: %+v", st)
	}
	if m.Count() == 0 || m.Count() > 5 {
		t.Errorf("mask size=%d, want small", m.Count())
	}
}

func TestBuildPolicyMap(t *testing.T) {
	s := lingerScene()
	g := grid100()
	pres := scene.CollectPresence(s, g, s.Bounds(), 10)
	pm := mask.BuildPolicyMap("camA", pres, g, s.FPS, 10, 2, []float64{1, 2, 10})
	if len(pm.Entries) != 3 {
		t.Fatalf("%d entries, want 3", len(pm.Entries))
	}
	// Rho must be non-increasing as the factor grows.
	for i := 1; i < len(pm.Entries); i++ {
		if pm.Entries[i].Policy.Rho > pm.Entries[i-1].Policy.Rho {
			t.Errorf("rho increased between entries %d and %d", i-1, i)
		}
	}
	// Every policy keeps K.
	for _, e := range pm.Entries {
		if e.Policy.K != 2 {
			t.Errorf("K=%d, want 2", e.Policy.K)
		}
	}
	// The unmasked entry's rho must cover the lingerer (1000 sampled
	// frames * 10 stride / 10 fps = 1000s).
	if rho := pm.Entries[0].Policy.Rho; rho < 900*time.Second {
		t.Errorf("unmasked rho=%v, want >=900s", rho)
	}
	// Lookup and Best.
	if _, ok := pm.Lookup(pm.Entries[1].ID); !ok {
		t.Errorf("Lookup failed")
	}
	best, ok := pm.Best(1.0)
	if !ok || best.Policy.Rho != pm.Entries[len(pm.Entries)-1].Policy.Rho {
		t.Errorf("Best(1.0) = %+v", best)
	}
	if _, ok := pm.Best(-1); ok {
		t.Errorf("Best with impossible budget should fail")
	}
}

func TestPresenceClipping(t *testing.T) {
	s := lingerScene()
	g := grid100()
	// Clip to a window covering only the first transit.
	pres := scene.CollectPresence(s, g, vtime.NewInterval(0, 250), 10)
	if len(pres) != 1 {
		t.Fatalf("clipped presence=%d tracks, want 1", len(pres))
	}
	if n := len(pres[0].Frames); n < 15 || n > 25 {
		t.Errorf("clipped track has %d sampled frames, want ~20", n)
	}
}
