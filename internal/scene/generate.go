package scene

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privid/internal/geom"
	"privid/internal/region"
	"privid/internal/video"
	"privid/internal/vtime"
)

// ClassArrivals configures the arrival process of one entity class:
// a Poisson process whose rate is modulated by hour of day.
type ClassArrivals struct {
	Class   video.Class
	PerHour float64     // mean arrivals per hour at diurnal weight 1.0
	Diurnal [24]float64 // multiplicative weight per hour of day
}

// LingerSpot is a region where a fraction of entities dwell for a long
// time (a bench, a bus stop, a parking spot) — the source of the
// heavy persistence tail in Fig. 4.
type LingerSpot struct {
	Rect      geom.Rect
	MedianSec float64 // lognormal median of the extra dwell
	SigmaLog  float64 // lognormal shape
}

// Route is a way through the scene: an entry edge, an exit edge, and
// optional interior waypoints (in unit frame coordinates), such as a
// crosswalk. Weight sets relative popularity; Classes restricts which
// entity classes use the route (nil means all).
type Route struct {
	Weight   float64
	From, To Side
	Via      []geom.Point // unit coordinates (0..1, 0..1)
	Classes  []video.Class
	// Entry/exit jitter along the edge, as a fraction range of the
	// edge. Defaults to the whole edge when zero.
	FromLo, FromHi float64
	ToLo, ToHi     float64
}

// ParkedSpec is a vehicle that drives in, parks inside a spot for a
// long period, then drives out (the "parked car" pattern of §7.1).
type ParkedSpec struct {
	Spot          geom.Rect
	Count         int
	MedianParkSec float64
	SigmaLog      float64
	ManeuverSec   float64 // visible driving time on each side of the park
}

// Profile fully parameterizes a synthetic camera scene.
type Profile struct {
	Name        string
	W, H        float64
	FPS         vtime.FrameRate
	MPHPerPxSec float64 // camera scale calibration

	Arrivals []ClassArrivals
	Routes   []Route

	DwellMedianSec float64 // lognormal median of transit dwell
	DwellSigmaLog  float64

	LingerProb  float64
	LingerSpots []LingerSpot

	ReturnProb      float64 // probability of a second appearance (K=2)
	ReturnGapMedSec float64

	Parked []ParkedSpec

	SizeByClass map[video.Class][2]float64 // {w, h} pixels
	Colors      []string                   // vehicle color palette (weighted by position)

	Lights    []Light
	TreeCount int
	TreeLeafy int // how many of the trees have leaves

	// Schemes are the owner's spatial-splitting schemes (Table 2
	// regions are defined per video), in unit coordinates (0..1, 0..1);
	// FrameSchemes scales them to the frame.
	Schemes []region.Scheme

	// Detector calibration (consumed by internal/cv): per-frame
	// detection probability for a typical object, and how much
	// crowding degrades it. Chosen per video to match Table 1's
	// reported miss rates (campus 29%, highway 5%, urban 76%).
	DetectBase  float64
	CrowdFactor float64 // subtracted per log2(1+concurrent objects)
}

// FrameSchemes returns the profile's splitting schemes scaled to its
// frame, keyed by name: the schemes a camera showing it registers.
func (p Profile) FrameSchemes() map[string]region.Scheme {
	out := make(map[string]region.Scheme, len(p.Schemes))
	for _, sch := range p.Schemes {
		scaled := region.Scheme{Name: sch.Name, Hard: sch.Hard}
		for _, r := range sch.Regions {
			r.Rect = geom.Rect{X0: r.Rect.X0 * p.W, Y0: r.Rect.Y0 * p.H, X1: r.Rect.X1 * p.W, Y1: r.Rect.Y1 * p.H}
			scaled.Regions = append(scaled.Regions, r)
		}
		out[sch.Name] = scaled
	}
	return out
}

// DefaultStart is the wall-clock anchor used by the evaluation: 6am,
// matching the paper's 6am–6pm capture window.
var DefaultStart = time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)

// Generate builds a deterministic scene of the given duration from a
// profile and seed.
func Generate(p Profile, seed int64, dur time.Duration) *Scene {
	rng := rand.New(rand.NewSource(seed))
	frames := p.FPS.FramesCeil(dur)
	s := &Scene{
		Name:   p.Name,
		W:      p.W,
		H:      p.H,
		FPS:    p.FPS,
		Start:  DefaultStart,
		Frames: frames,
		Lights: p.Lights,
	}
	g := &generator{p: p, rng: rng, s: s}
	g.placeTrees()
	g.placeParked()
	g.placeArrivals(dur)
	s.BuildIndex()
	return s
}

type generator struct {
	p      Profile
	rng    *rand.Rand
	s      *Scene
	nextID int
}

func (g *generator) newID() int {
	g.nextID++
	return g.nextID - 1
}

// lognormal samples exp(ln(median) + sigma*Z).
func (g *generator) lognormal(median, sigma float64) float64 {
	return math.Exp(math.Log(median) + sigma*g.rng.NormFloat64())
}

// poisson samples a Poisson variate; it switches to a normal
// approximation for large rates.
func (g *generator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		n := lambda + math.Sqrt(lambda)*g.rng.NormFloat64()
		if n < 0 {
			return 0
		}
		return int(n + 0.5)
	}
	l := math.Exp(-lambda)
	k, pr := 0, 1.0
	for {
		pr *= g.rng.Float64()
		if pr <= l {
			return k
		}
		k++
	}
}

func (g *generator) placeTrees() {
	for i := 0; i < g.p.TreeCount; i++ {
		// Trees line the top band of the frame, evenly spaced.
		w := g.p.W / float64(g.p.TreeCount+1)
		cx := w * float64(i+1)
		box := geom.RectAround(geom.Point{X: cx, Y: g.p.H * 0.08}, w*0.5, g.p.H*0.12)
		g.s.Trees = append(g.s.Trees, TreeSpec{Box: box, Leaves: i < g.p.TreeLeafy})
	}
}

func (g *generator) size(c video.Class) (w, h float64) {
	if dims, ok := g.p.SizeByClass[c]; ok {
		return dims[0], dims[1]
	}
	return 20, 40
}

func (g *generator) color() string {
	if len(g.p.Colors) == 0 {
		return ""
	}
	// Geometric-ish weighting: earlier palette entries are more common.
	for _, c := range g.p.Colors {
		if g.rng.Float64() < 0.35 {
			return c
		}
	}
	return g.p.Colors[len(g.p.Colors)-1]
}

// edgePoint returns a point on the given frame edge, at fraction f
// along it, nudged slightly inside the frame so the object's center is
// visible on its first frame.
func (g *generator) edgePoint(side Side, f float64) geom.Point {
	w, h := g.p.W, g.p.H
	switch side {
	case SideNorth:
		return geom.Point{X: f * w, Y: 1}
	case SideSouth:
		return geom.Point{X: f * w, Y: h - 1}
	case SideWest:
		return geom.Point{X: 1, Y: f * h}
	case SideEast:
		return geom.Point{X: w - 1, Y: f * h}
	default:
		return geom.Point{X: f * w, Y: h / 2}
	}
}

func (g *generator) pickRoute(c video.Class) Route {
	var eligible []Route
	total := 0.0
	for _, r := range g.p.Routes {
		ok := len(r.Classes) == 0
		for _, rc := range r.Classes {
			if rc == c {
				ok = true
			}
		}
		if ok {
			eligible = append(eligible, r)
			total += r.Weight
		}
	}
	if len(eligible) == 0 {
		return Route{Weight: 1, From: SideWest, To: SideEast}
	}
	x := g.rng.Float64() * total
	for _, r := range eligible {
		x -= r.Weight
		if x <= 0 {
			return r
		}
	}
	return eligible[len(eligible)-1]
}

func (g *generator) edgeFraction(lo, hi float64) float64 {
	if hi <= lo {
		lo, hi = 0.1, 0.9
	}
	return lo + g.rng.Float64()*(hi-lo)
}

// buildPath constructs an appearance path along a route, optionally
// dwelling at a linger spot partway through.
func (g *generator) buildPath(c video.Class, route Route, enter, exit int64, linger *LingerSpot, lingerFrac float64) *Path {
	w, h := g.size(c)
	from := g.edgePoint(route.From, g.edgeFraction(route.FromLo, route.FromHi))
	to := g.edgePoint(route.To, g.edgeFraction(route.ToLo, route.ToHi))
	var pts []Waypoint
	pts = append(pts, Waypoint{T: 0, P: from})
	// Interior waypoints split the pre-linger portion of the timeline.
	nVia := len(route.Via)
	travelFrac := 1 - lingerFrac
	for i, v := range route.Via {
		t := travelFrac * 0.5 * float64(i+1) / float64(nVia+1)
		pts = append(pts, Waypoint{T: t, P: geom.Point{X: v.X * g.p.W, Y: v.Y * g.p.H}})
	}
	if linger != nil && lingerFrac > 0 {
		spot := linger.Rect.Center()
		jitter := geom.Point{
			X: (g.rng.Float64() - 0.5) * linger.Rect.W() * 0.6,
			Y: (g.rng.Float64() - 0.5) * linger.Rect.H() * 0.6,
		}
		p := spot.Add(jitter)
		t0 := travelFrac * 0.5
		pts = append(pts, Waypoint{T: t0, P: p}, Waypoint{T: t0 + lingerFrac, P: p})
	}
	pts = append(pts, Waypoint{T: 1, P: to})
	return NewPath(enter, exit, w, h, g.p.MPHPerPxSec, pts...)
}

func (g *generator) placeArrivals(dur time.Duration) {
	hours := int(math.Ceil(dur.Hours()))
	for _, ca := range g.p.Arrivals {
		for hr := 0; hr < hours; hr++ {
			hourOfDay := (g.s.Start.Hour() + hr) % 24
			weight := ca.Diurnal[hourOfDay]
			frac := math.Min(1, dur.Hours()-float64(hr))
			n := g.poisson(ca.PerHour * weight * frac)
			for i := 0; i < n; i++ {
				g.placeEntity(ca.Class, hr, frac)
			}
		}
	}
}

func (g *generator) placeEntity(c video.Class, hour int, hourFrac float64) {
	fps := float64(g.p.FPS)
	enterSec := (float64(hour) + g.rng.Float64()*hourFrac) * 3600
	enter := int64(enterSec * fps)
	dwellSec := g.lognormal(g.p.DwellMedianSec, g.p.DwellSigmaLog)

	var linger *LingerSpot
	lingerFrac := 0.0
	if len(g.p.LingerSpots) > 0 && g.rng.Float64() < g.p.LingerProb {
		ls := g.p.LingerSpots[g.rng.Intn(len(g.p.LingerSpots))]
		linger = &ls
		extra := g.lognormal(ls.MedianSec, ls.SigmaLog)
		lingerFrac = extra / (dwellSec + extra)
		dwellSec += extra
	}

	exit := enter + int64(dwellSec*fps)
	if exit <= enter {
		exit = enter + 1
	}
	if enter >= g.s.Frames {
		return
	}
	if exit > g.s.Frames {
		exit = g.s.Frames
	}

	route := g.pickRoute(c)
	e := &Entity{
		ID:        g.newID(),
		Class:     c,
		EnterSide: route.From,
		ExitSide:  route.To,
	}
	if c == video.Car || c == video.Boat {
		e.Color = g.color()
		e.Plate = fmt.Sprintf("P%05X", e.ID)
	}
	e.Appearances = append(e.Appearances, Appearance{
		Enter: enter, Exit: exit,
		Traj: g.buildPath(c, route, enter, exit, linger, lingerFrac),
	})

	// With ReturnProb the entity reappears later (K = 2), traveling the
	// reverse route for roughly half the original dwell.
	if g.rng.Float64() < g.p.ReturnProb {
		gap := g.lognormal(g.p.ReturnGapMedSec, 0.5)
		enter2 := exit + int64(gap*fps)
		dwell2 := g.lognormal(g.p.DwellMedianSec*0.6, g.p.DwellSigmaLog)
		exit2 := enter2 + int64(dwell2*fps)
		if enter2 < g.s.Frames {
			if exit2 > g.s.Frames {
				exit2 = g.s.Frames
			}
			if exit2 > enter2 {
				rev := Route{From: route.To, To: route.From, Via: reversePoints(route.Via)}
				e.Appearances = append(e.Appearances, Appearance{
					Enter: enter2, Exit: exit2,
					Traj: g.buildPath(c, rev, enter2, exit2, nil, 0),
				})
			}
		}
	}
	g.s.Ents = append(g.s.Ents, e)
}

func (g *generator) placeParked() {
	fps := float64(g.p.FPS)
	for _, spec := range g.p.Parked {
		for i := 0; i < spec.Count; i++ {
			parkSec := g.lognormal(spec.MedianParkSec, spec.SigmaLog)
			manSec := spec.ManeuverSec
			totalSec := parkSec + 2*manSec
			latest := g.s.Frames - int64(totalSec*fps)
			var enter int64
			if latest > 0 {
				enter = int64(g.rng.Float64() * float64(latest))
			}
			exit := enter + int64(totalSec*fps)
			if exit > g.s.Frames {
				exit = g.s.Frames
			}
			if exit <= enter {
				continue
			}
			w, h := g.size(video.Car)
			spot := spec.Spot.Center().Add(geom.Point{
				X: (g.rng.Float64() - 0.5) * spec.Spot.W() * 0.5,
				Y: (g.rng.Float64() - 0.5) * spec.Spot.H() * 0.5,
			})
			entry := g.edgePoint(SideWest, 0.3+g.rng.Float64()*0.4)
			exitPt := g.edgePoint(SideEast, 0.3+g.rng.Float64()*0.4)
			mf := manSec / totalSec
			e := &Entity{
				ID:        g.newID(),
				Class:     video.Car,
				Color:     g.color(),
				EnterSide: SideWest,
				ExitSide:  SideEast,
			}
			e.Plate = fmt.Sprintf("P%05X", e.ID)
			e.Appearances = append(e.Appearances, Appearance{
				Enter: enter, Exit: exit,
				Traj: NewPath(enter, exit, w, h, g.p.MPHPerPxSec,
					Waypoint{T: 0, P: entry},
					Waypoint{T: mf, P: spot},
					Waypoint{T: 1 - mf, P: spot},
					Waypoint{T: 1, P: exitPt},
				),
			})
			g.s.Ents = append(g.s.Ents, e)
		}
	}
}

func reversePoints(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[len(pts)-1-i] = p
	}
	return out
}
