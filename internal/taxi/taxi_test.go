package taxi

import (
	"testing"

	"privid/internal/vtime"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Taxis = 50
	cfg.Cameras = 30
	cfg.Days = 10
	return cfg
}

func TestDayDeterminism(t *testing.T) {
	a := NewFleet(smallConfig())
	b := NewFleet(smallConfig())
	da, db := a.Day(3), b.Day(3)
	if len(da) != len(db) {
		t.Fatalf("camera maps differ: %d vs %d", len(da), len(db))
	}
	for cam, va := range da {
		vb := db[cam]
		if len(va) != len(vb) {
			t.Fatalf("camera %d visit counts differ", cam)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("camera %d visit %d differs: %+v vs %+v", cam, i, va[i], vb[i])
			}
		}
	}
}

func TestVisitInvariants(t *testing.T) {
	f := NewFleet(smallConfig())
	for day := 0; day < 5; day++ {
		for cam, visits := range f.Day(day) {
			prev := int64(-1)
			for _, v := range visits {
				if v.Camera != cam {
					t.Fatalf("visit camera mismatch: %+v at %d", v, cam)
				}
				if v.Start < prev {
					t.Fatalf("visits not sorted on camera %d", cam)
				}
				prev = v.Start
				dur := v.End - v.Start
				if dur < 1 || dur > 525 {
					t.Errorf("visit duration %ds out of [1, 525]", dur)
				}
				dayStart := int64(day) * 86400
				if v.Start < dayStart || v.End > dayStart+86400 {
					t.Errorf("visit outside its day: %+v", v)
				}
				if v.Taxi < 0 || v.Taxi >= f.Cfg.Taxis {
					t.Errorf("bad taxi id %d", v.Taxi)
				}
			}
		}
	}
}

func TestVisibilityRange(t *testing.T) {
	f := NewFleet(DefaultConfig())
	lo := f.BaseVisibilitySec(0)
	hi := f.BaseVisibilitySec(f.Cfg.Cameras - 1)
	if lo != 15 || hi != 525 {
		t.Errorf("visibility range [%v, %v], want [15, 525]", lo, hi)
	}
}

func TestCamera20Busiest(t *testing.T) {
	f := NewFleet(smallConfig())
	counts := make([]int, f.Cfg.Cameras)
	for day := 0; day < 10; day++ {
		for cam, visits := range f.Day(day) {
			counts[cam] += len(visits)
		}
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	if best < 18 || best > 22 {
		t.Errorf("busiest camera %d, want ~20", best)
	}
}

func TestSourceFrames(t *testing.T) {
	f := NewFleet(smallConfig())
	src := f.Source(20)
	info := src.Info()
	if info.Camera != "porto20" || info.FPS != 1 {
		t.Fatalf("info: %+v", info)
	}
	if info.Frames != int64(f.Cfg.Days)*86400 {
		t.Errorf("frames=%d", info.Frames)
	}
	// Frame contents must match the visit list.
	visits := f.Day(0)[20]
	if len(visits) == 0 {
		t.Skip("no visits at camera 20 on day 0 for this seed")
	}
	v := visits[0]
	fr := src.Frame(v.Start)
	found := false
	for _, o := range fr.Objects {
		if o.EntityID == v.Taxi {
			found = true
			if o.Plate == "" {
				t.Errorf("taxi observation has no plate")
			}
		}
	}
	if !found {
		t.Errorf("taxi %d not visible at its visit start", v.Taxi)
	}
	// One second before the visit it is absent (visits are merged and
	// sorted, so only check when no other visit covers that frame).
	before := src.Frame(v.Start - 1)
	for _, o := range before.Objects {
		if o.EntityID == v.Taxi {
			covered := false
			for _, w := range visits {
				if w.Taxi == v.Taxi && w.Start <= v.Start-1 && v.Start-1 < w.End {
					covered = true
				}
			}
			if !covered {
				t.Errorf("taxi visible outside its visits")
			}
		}
	}
}

func TestActiveIntervalsCoverVisits(t *testing.T) {
	f := NewFleet(smallConfig())
	src := f.Source(10).(interface {
		ActiveIntervals([]vtime.Interval, vtime.Interval) []vtime.Interval
	})
	iv := vtime.NewInterval(0, 2*86400)
	actives := src.ActiveIntervals(nil, iv)
	// Sorted and disjoint.
	for i := 1; i < len(actives); i++ {
		if actives[i].Start < actives[i-1].End {
			t.Fatalf("active intervals overlap: %v, %v", actives[i-1], actives[i])
		}
	}
	inActive := func(fr int64) bool {
		for _, a := range actives {
			if a.Contains(fr) {
				return true
			}
		}
		return false
	}
	for day := 0; day < 2; day++ {
		for _, v := range f.Day(day)[10] {
			if !inActive(v.Start) || !inActive(v.End-1) {
				t.Fatalf("visit %+v not covered by active intervals", v)
			}
		}
	}
}

func TestWorkloadScale(t *testing.T) {
	// The default config should produce a plausible daily workload:
	// hundreds of visits across the city per day.
	f := NewFleet(DefaultConfig())
	day := f.Day(100)
	total := 0
	for _, vs := range day {
		total += len(vs)
	}
	// 442 taxis * ~10 trips * ~2 cameras ~ 9k visits.
	if total < 2000 || total > 40000 {
		t.Errorf("daily visits=%d, want thousands", total)
	}
}
