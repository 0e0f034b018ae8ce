// Package taxi is the Porto Taxi substrate: a deterministic simulator
// of the dataset the paper uses for its multi-camera case study
// (Case 2, Q4–Q6): 442 taxis running in a city observed by 105 virtual
// cameras over 1.5 years, reduced — exactly as the paper's processing
// of [36] does — to the set of timestamps each taxi is visible to each
// camera.
//
// Visits are generated lazily per day with per-(seed, taxi, day)
// determinism, so a year of fleet data streams in bounded memory.
package taxi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"privid/internal/video"
	"privid/internal/vtime"
)

// Config parameterizes the fleet.
type Config struct {
	Taxis   int
	Cameras int
	Days    int
	Seed    int64
	Start   time.Time
	// FPS of the virtual cameras; visibility timestamps are
	// second-granular, so 1 fps is the natural rate.
	FPS vtime.FrameRate
}

// DefaultConfig mirrors the paper's dataset dimensions. Days defaults
// to 365 (the queries' |W| = 365 days) rather than the full 545-day
// capture.
func DefaultConfig() Config {
	return Config{
		Taxis:   442,
		Cameras: 105,
		Days:    365,
		Seed:    1,
		Start:   time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		FPS:     1,
	}
}

// Visit is one taxi passing one camera: visible for frames
// [Start, End) (at 1 fps, frame == second since fleet start).
type Visit struct {
	Taxi   int
	Camera int
	Start  int64
	End    int64
}

// Fleet generates and caches per-day visits.
type Fleet struct {
	Cfg Config

	mu    sync.Mutex
	cache map[int]map[int][]Visit // day -> camera -> visits (sorted by Start)

	profiles []driverProfile
}

type driverProfile struct {
	shiftStartSec float64 // seconds after midnight
	shiftLenSec   float64
	tripsPerDay   float64
	favored       [3]int // cameras this driver passes most
}

// NewFleet builds a fleet simulator.
func NewFleet(cfg Config) *Fleet {
	f := &Fleet{Cfg: cfg, cache: map[int]map[int][]Visit{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f.profiles = make([]driverProfile, cfg.Taxis)
	for t := range f.profiles {
		start := 5*3600 + rng.Float64()*14*3600 // shifts start 5am-7pm
		f.profiles[t] = driverProfile{
			shiftStartSec: start,
			shiftLenSec:   (5 + rng.Float64()*5) * 3600, // 5-10 h shifts
			tripsPerDay:   6 + rng.Float64()*10,
			favored: [3]int{
				rng.Intn(cfg.Cameras),
				rng.Intn(cfg.Cameras),
				rng.Intn(cfg.Cameras),
			},
		}
	}
	return f
}

// CameraName returns the paper-style name of camera i ("porto<i>").
func CameraName(i int) string { return fmt.Sprintf("porto%d", i) }

// BaseVisibilitySec returns camera i's characteristic visibility
// duration. Across cameras the values span the paper's [15, 525] s
// range (Table 3's ρ column).
func (f *Fleet) BaseVisibilitySec(camera int) float64 {
	if f.Cfg.Cameras <= 1 {
		return 15
	}
	return 15 + 510*float64(camera)/float64(f.Cfg.Cameras-1)
}

// cameraWeight shapes the city's traffic: camera 20 is the busiest
// junction by a clear margin (Q6's ground-truth argmax is porto20),
// and cameras 10 and 27 — the pair Case 2's union/intersection queries
// target — are busy secondary hubs so taxi overlap between them is
// common (the paper measures ~131 shared taxis/day).
func (f *Fleet) cameraWeight(camera int) float64 {
	bump := func(center int, height, width float64) float64 {
		d := float64(camera - center)
		return height * math.Exp(-d*d/width)
	}
	return 1 + bump(20, 8, 3) + bump(10, 3.5, 2) + bump(27, 3.5, 2)
}

// Day returns (generating if needed) all visits of one day, grouped by
// camera and sorted by start time.
func (f *Fleet) Day(day int) map[int][]Visit {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.cache[day]; ok {
		return v
	}
	out := f.generateDay(day)
	f.cache[day] = out
	return out
}

func (f *Fleet) generateDay(day int) map[int][]Visit {
	out := map[int][]Visit{}
	// Cumulative camera weights for weighted sampling.
	weights := make([]float64, f.Cfg.Cameras)
	total := 0.0
	for c := range weights {
		total += f.cameraWeight(c)
		weights[c] = total
	}
	dayBase := int64(day) * 86400
	for t := 0; t < f.Cfg.Taxis; t++ {
		rng := rand.New(rand.NewSource(f.Cfg.Seed ^ int64(t)*1_000_003 ^ int64(day)*7_777_777))
		p := f.profiles[t]
		// ~1 day off per week.
		if rng.Float64() < 1.0/7 {
			continue
		}
		// Each trip passes 1-3 cameras.
		nTrips := int(p.tripsPerDay * (0.7 + 0.6*rng.Float64()))
		for trip := 0; trip < nTrips; trip++ {
			at := p.shiftStartSec + rng.Float64()*p.shiftLenSec
			nCams := 1 + rng.Intn(3)
			for k := 0; k < nCams; k++ {
				var cam int
				if rng.Float64() < 0.3 {
					cam = p.favored[rng.Intn(3)]
				} else {
					x := rng.Float64() * total
					cam = sort.SearchFloat64s(weights, x)
					if cam >= f.Cfg.Cameras {
						cam = f.Cfg.Cameras - 1
					}
				}
				dur := f.BaseVisibilitySec(cam) * math.Exp(0.3*rng.NormFloat64())
				if dur < 15 {
					dur = 15
				}
				if dur > 525 {
					dur = 525
				}
				start := dayBase + int64(at) + int64(k)*600
				end := start + int64(dur)
				limit := dayBase + 86400
				if end > limit {
					end = limit
				}
				if start >= end {
					continue
				}
				out[cam] = append(out[cam], Visit{Taxi: t, Camera: cam, Start: start, End: end})
			}
		}
	}
	for c := range out {
		vs := out[c]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Start < vs[j].Start })
	}
	return out
}

// TotalFrames returns the fleet's stream length in frames.
func (f *Fleet) TotalFrames() int64 {
	return int64(f.Cfg.Days) * 86400 * int64(f.Cfg.FPS)
}

// Source returns the virtual camera stream for one camera. It
// implements video.SparseSource so year-long queries skip empty
// chunks.
func (f *Fleet) Source(camera int) video.Source {
	return &camSource{fleet: f, camera: camera}
}

type camSource struct {
	fleet  *Fleet
	camera int
}

// Info implements video.Source.
func (s *camSource) Info() video.Info {
	return video.Info{
		Camera: CameraName(s.camera),
		W:      1280, H: 720,
		FPS:    s.fleet.Cfg.FPS,
		Start:  s.fleet.Cfg.Start,
		Frames: s.fleet.TotalFrames(),
	}
}

// Frame implements video.Source: one observation per taxi currently
// visible.
func (s *camSource) Frame(i int64) video.Frame {
	sec := i / int64(s.fleet.Cfg.FPS)
	day := int(sec / 86400)
	frame := video.Frame{Index: i}
	if day < 0 || day >= s.fleet.Cfg.Days {
		return frame
	}
	visits := s.fleet.Day(day)[s.camera]
	// Visits are sorted by Start and last at most 525 s, so only those
	// starting within (sec-525, sec] can cover sec.
	lo := sort.Search(len(visits), func(j int) bool { return visits[j].Start > sec-526 })
	for j := lo; j < len(visits) && visits[j].Start <= sec; j++ {
		v := visits[j]
		if sec < v.End {
			frame.Objects = append(frame.Objects, video.Observation{
				EntityID: v.Taxi,
				Class:    video.Car,
				Plate:    fmt.Sprintf("TAXI%04d", v.Taxi),
			})
		}
	}
	return frame
}

// ActiveIntervals implements video.SparseSource.
func (s *camSource) ActiveIntervals(out []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	fps := int64(s.fleet.Cfg.FPS)
	base := len(out)
	d0 := int(iv.Start / fps / 86400)
	d1 := int((iv.End - 1) / fps / 86400)
	if d0 < 0 {
		d0 = 0
	}
	if d1 >= s.fleet.Cfg.Days {
		d1 = s.fleet.Cfg.Days - 1
	}
	for day := d0; day <= d1; day++ {
		for _, v := range s.fleet.Day(day)[s.camera] {
			x := vtime.NewInterval(v.Start*fps, v.End*fps).Intersect(iv)
			if x.Empty() {
				continue
			}
			// Merge with the previous interval when overlapping or
			// adjacent (visits are sorted by start within a day).
			if n := len(out); n > base && x.Start <= out[n-1].End {
				if x.End > out[n-1].End {
					out[n-1].End = x.End
				}
				continue
			}
			out = append(out, x)
		}
	}
	return out
}
