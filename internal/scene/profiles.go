package scene

import (
	"sort"

	"privid/internal/geom"
	"privid/internal/region"
	"privid/internal/video"
)

// diurnal builds a 24-entry hour-of-day weight table from (hour,
// weight) anchor points with linear interpolation between them
// (wrapping around midnight).
func diurnal(anchors ...[2]float64) [24]float64 {
	var out [24]float64
	if len(anchors) == 0 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	sorted := append([][2]float64(nil), anchors...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for h := 0; h < 24; h++ {
		hh := float64(h)
		// First anchor strictly after hh.
		i := 0
		for i < len(sorted) && sorted[i][0] <= hh {
			i++
		}
		var prev, next [2]float64
		switch {
		case i == 0:
			prev = sorted[len(sorted)-1]
			prev[0] -= 24
			next = sorted[0]
		case i == len(sorted):
			prev = sorted[len(sorted)-1]
			next = sorted[0]
			next[0] += 24
		default:
			prev, next = sorted[i-1], sorted[i]
		}
		span := next[0] - prev[0]
		t := 0.0
		if span > 0 {
			t = (hh - prev[0]) / span
		}
		out[h] = prev[1] + t*(next[1]-prev[1])
	}
	return out
}

func flat() [24]float64 { return diurnal() }

// carPalette is the vehicle color distribution; S2 in Listing 1 groups
// by RED/WHITE/SILVER.
var carPalette = []string{"WHITE", "SILVER", "RED", "BLACK", "BLUE", "GRAY"}

// Campus returns the campus profile: a walkway camera dominated by
// pedestrians, two crosswalk-style routes, benches that create a heavy
// persistence tail, and moderate detection quality (Table 1: 29% of
// objects missed).
func Campus() Profile {
	day := diurnal([2]float64{6, 0.3}, [2]float64{9, 1.0}, [2]float64{12, 1.5},
		[2]float64{15, 1.2}, [2]float64{18, 0.8}, [2]float64{22, 0.2}, [2]float64{2, 0.05})
	return Profile{
		Name: "campus", W: 1280, H: 720, FPS: 10, MPHPerPxSec: 0.035,
		Arrivals: []ClassArrivals{
			{Class: video.Person, PerHour: 110, Diurnal: day},
			{Class: video.Bike, PerHour: 12, Diurnal: day},
		},
		Routes: []Route{
			// Two crosswalks (left and right), the Table 2 regions.
			{Weight: 2, From: SideSouth, To: SideNorth, Via: []geom.Point{{X: 0.3, Y: 0.5}}, FromLo: 0.2, FromHi: 0.4, ToLo: 0.2, ToHi: 0.4},
			{Weight: 2, From: SideNorth, To: SideSouth, Via: []geom.Point{{X: 0.7, Y: 0.5}}, FromLo: 0.6, FromHi: 0.8, ToLo: 0.6, ToHi: 0.8},
			{Weight: 1, From: SideWest, To: SideEast},
		},
		DwellMedianSec: 32, DwellSigmaLog: 0.32,
		LingerProb: 0.015,
		LingerSpots: []LingerSpot{
			{Rect: geom.Rect{X0: 1000, Y0: 520, X1: 1180, Y1: 640}, MedianSec: 700, SigmaLog: 0.6},
			{Rect: geom.Rect{X0: 80, Y0: 560, X1: 260, Y1: 680}, MedianSec: 500, SigmaLog: 0.6},
		},
		ReturnProb: 0.08, ReturnGapMedSec: 1800,
		SizeByClass: map[video.Class][2]float64{
			video.Person: {26, 64}, video.Bike: {40, 55},
		},
		Lights: []Light{
			{Box: geom.Rect{X0: 420, Y0: 50, X1: 455, Y1: 130}, RedSec: 75, GreenSec: 45, PhaseSec: 20},
		},
		TreeCount: 15, TreeLeafy: 15,
		Schemes: []region.Scheme{
			{Name: "crosswalks", Regions: []region.Named{
				{Name: "xwalk-west", Rect: geom.Rect{X0: 0, Y0: 0, X1: 0.5, Y1: 1}},
				{Name: "xwalk-east", Rect: geom.Rect{X0: 0.5, Y0: 0, X1: 1, Y1: 1}},
			}},
		},
		DetectBase: 0.76, CrowdFactor: 0.03,
	}
}

// Highway returns the highway profile: a fast two-direction road with
// heavy vehicle traffic, a shoulder/rest area with long-parked cars,
// a traffic light, and excellent detection (5% missed).
func Highway() Profile {
	day := diurnal([2]float64{6, 0.8}, [2]float64{8, 1.6}, [2]float64{11, 1.0},
		[2]float64{17, 1.7}, [2]float64{20, 0.7}, [2]float64{1, 0.15})
	return Profile{
		Name: "highway", W: 1280, H: 720, FPS: 10, MPHPerPxSec: 0.38,
		Arrivals: []ClassArrivals{
			{Class: video.Car, PerHour: 3900, Diurnal: day},
		},
		Routes: []Route{
			// Eastbound in the top half, westbound in the bottom half —
			// the Table 2 "per direction" hard regions.
			{Weight: 1, From: SideWest, To: SideEast, FromLo: 0.12, FromHi: 0.42, ToLo: 0.12, ToHi: 0.42},
			{Weight: 1, From: SideEast, To: SideWest, FromLo: 0.55, FromHi: 0.85, ToLo: 0.55, ToHi: 0.85},
		},
		DwellMedianSec: 9, DwellSigmaLog: 0.3,
		Parked: []ParkedSpec{
			{Spot: geom.Rect{X0: 1060, Y0: 620, X1: 1270, Y1: 710}, Count: 14, MedianParkSec: 5400, SigmaLog: 0.7, ManeuverSec: 25},
		},
		SizeByClass: map[video.Class][2]float64{video.Car: {80, 45}},
		Colors:      carPalette,
		Lights: []Light{
			{Box: geom.Rect{X0: 620, Y0: 30, X1: 660, Y1: 110}, RedSec: 50, GreenSec: 70, PhaseSec: 10},
		},
		TreeCount: 7, TreeLeafy: 3,
		Schemes: []region.Scheme{
			{Name: "directions", Hard: true, Regions: []region.Named{
				{Name: "eastbound", Rect: geom.Rect{X0: 0, Y0: 0, X1: 1, Y1: 0.5}},
				{Name: "westbound", Rect: geom.Rect{X0: 0, Y0: 0.5, X1: 1, Y1: 1}},
			}},
		},
		DetectBase: 0.965, CrowdFactor: 0.004,
	}
}

// Urban returns the urban profile: a dense downtown intersection with
// four crosswalks, crowds of small distant pedestrians (76% missed),
// bus-stop lingerers, and a traffic light.
func Urban() Profile {
	day := diurnal([2]float64{6, 0.4}, [2]float64{9, 1.2}, [2]float64{12, 1.6},
		[2]float64{18, 1.4}, [2]float64{22, 0.5}, [2]float64{3, 0.1})
	xw := func(x, y float64) geom.Point { return geom.Point{X: x, Y: y} }
	return Profile{
		Name: "urban", W: 1280, H: 720, FPS: 10, MPHPerPxSec: 0.05,
		Arrivals: []ClassArrivals{
			{Class: video.Person, PerHour: 3400, Diurnal: day},
			{Class: video.Car, PerHour: 420, Diurnal: day},
		},
		Routes: []Route{
			{Weight: 1, From: SideSouth, To: SideNorth, Via: []geom.Point{xw(0.2, 0.5)}, FromLo: 0.1, FromHi: 0.3, ToLo: 0.1, ToHi: 0.3, Classes: []video.Class{video.Person}},
			{Weight: 1, From: SideNorth, To: SideSouth, Via: []geom.Point{xw(0.4, 0.5)}, FromLo: 0.3, FromHi: 0.5, ToLo: 0.3, ToHi: 0.5, Classes: []video.Class{video.Person}},
			{Weight: 1, From: SideSouth, To: SideNorth, Via: []geom.Point{xw(0.6, 0.5)}, FromLo: 0.5, FromHi: 0.7, ToLo: 0.5, ToHi: 0.7, Classes: []video.Class{video.Person}},
			{Weight: 1, From: SideNorth, To: SideSouth, Via: []geom.Point{xw(0.8, 0.5)}, FromLo: 0.7, FromHi: 0.9, ToLo: 0.7, ToHi: 0.9, Classes: []video.Class{video.Person}},
			{Weight: 1, From: SideWest, To: SideEast, FromLo: 0.45, FromHi: 0.55, ToLo: 0.45, ToHi: 0.55, Classes: []video.Class{video.Car}},
		},
		DwellMedianSec: 24, DwellSigmaLog: 0.4,
		LingerProb: 0.003,
		LingerSpots: []LingerSpot{
			// The bus-stop shelter sits in the bottom-left corner,
			// off the crosswalk paths (pedestrians do not walk
			// through it, so lingerer tracks are not hijacked by
			// passers-by), and is sparsely occupied (~1 concurrent
			// sitter) so sitters rarely overlap each other.
			{Rect: geom.Rect{X0: 5, Y0: 550, X1: 205, Y1: 690}, MedianSec: 420, SigmaLog: 0.55},
		},
		ReturnProb: 0.05, ReturnGapMedSec: 2400,
		SizeByClass: map[video.Class][2]float64{
			video.Person: {14, 34}, video.Car: {60, 36},
		},
		Colors: carPalette,
		Lights: []Light{
			{Box: geom.Rect{X0: 900, Y0: 40, X1: 935, Y1: 120}, RedSec: 100, GreenSec: 60, PhaseSec: 0},
		},
		TreeCount: 6, TreeLeafy: 4,
		Schemes: []region.Scheme{
			{Name: "crosswalks", Regions: []region.Named{
				{Name: "xwalk-1", Rect: geom.Rect{X0: 0, Y0: 0, X1: 0.25, Y1: 1}},
				{Name: "xwalk-2", Rect: geom.Rect{X0: 0.25, Y0: 0, X1: 0.5, Y1: 1}},
				{Name: "xwalk-3", Rect: geom.Rect{X0: 0.5, Y0: 0, X1: 0.75, Y1: 1}},
				{Name: "xwalk-4", Rect: geom.Rect{X0: 0.75, Y0: 0, X1: 1, Y1: 1}},
			}},
		},
		DetectBase: 0.32, CrowdFactor: 0.005,
	}
}

// extended returns a parameter-variant profile used by the Table 6 /
// Fig. 11 extended masking evaluation (BlazeIt and MIRIS videos).
func extended(name string, class video.Class, perHour, dwellMed float64, lingerProb, lingerMed float64, spots []geom.Rect, detect float64) Profile {
	var ls []LingerSpot
	for _, r := range spots {
		ls = append(ls, LingerSpot{Rect: r, MedianSec: lingerMed, SigmaLog: 0.6})
	}
	sizes := map[video.Class][2]float64{
		video.Person: {18, 44}, video.Car: {70, 40}, video.Boat: {110, 50}, video.Bike: {36, 50},
	}
	return Profile{
		Name: name, W: 1280, H: 720, FPS: 10, MPHPerPxSec: 0.05,
		Arrivals: []ClassArrivals{{Class: class, PerHour: perHour, Diurnal: flat()}},
		Routes: []Route{
			{Weight: 1, From: SideWest, To: SideEast, FromLo: 0.3, FromHi: 0.7, ToLo: 0.3, ToHi: 0.7},
			{Weight: 1, From: SideEast, To: SideWest, FromLo: 0.3, FromHi: 0.7, ToLo: 0.3, ToHi: 0.7},
		},
		DwellMedianSec: dwellMed, DwellSigmaLog: 0.5,
		LingerProb: lingerProb, LingerSpots: ls,
		SizeByClass: sizes, Colors: carPalette,
		DetectBase: detect, CrowdFactor: 0.01,
	}
}

// GrandCanal returns the BlazeIt venice-grand-canal profile: slow boat
// traffic with many moored gondolas (lingerers spread widely, so
// masking is less selective — the paper retains only 26.7% of
// identities there).
func GrandCanal() Profile {
	return extended("grand-canal", video.Boat, 140, 60, 0.25, 2500, []geom.Rect{
		{X0: 100, Y0: 450, X1: 600, Y1: 700},
		{X0: 700, Y0: 430, X1: 1200, Y1: 700},
	}, 0.85)
}

// VeniceRialto returns the BlazeIt venice-rialto profile: busier boat
// traffic with one concentrated mooring area.
func VeniceRialto() Profile {
	return extended("venice-rialto", video.Boat, 260, 45, 0.05, 3500, []geom.Rect{
		{X0: 1050, Y0: 500, X1: 1270, Y1: 710},
	}, 0.88)
}

// Taipei returns the BlazeIt taipei profile: a busy road with a
// bus-stop lingering area.
func Taipei() Profile {
	return extended("taipei", video.Car, 1500, 14, 0.01, 2000, []geom.Rect{
		{X0: 60, Y0: 560, X1: 340, Y1: 700},
	}, 0.9)
}

// Shibuya returns the MIRIS shibuya profile: dense pedestrian crossing
// with a small waiting area.
func Shibuya() Profile {
	return extended("shibuya", video.Person, 2600, 30, 0.006, 1400, []geom.Rect{
		{X0: 560, Y0: 600, X1: 760, Y1: 710},
	}, 0.55)
}

// Beach returns the MIRIS beach profile: sparse strollers plus
// sunbathers who stay for a long time in one band of the frame.
func Beach() Profile {
	return extended("beach", video.Person, 110, 90, 0.1, 2200, []geom.Rect{
		{X0: 200, Y0: 400, X1: 1100, Y1: 560},
	}, 0.8)
}

// Warsaw returns the MIRIS warsaw profile: an intersection with cars
// queueing at a stop line.
func Warsaw() Profile {
	return extended("warsaw", video.Car, 800, 20, 0.015, 1500, []geom.Rect{
		{X0: 420, Y0: 300, X1: 700, Y1: 420},
	}, 0.85)
}

// UAV returns the MIRIS uav profile: an aerial view of cars, with a
// parking lot occupying much of the frame (40% of boxes masked in
// Table 6).
func UAV() Profile {
	return extended("uav", video.Car, 420, 25, 0.12, 1800, []geom.Rect{
		{X0: 100, Y0: 100, X1: 700, Y1: 600},
	}, 0.82)
}

// Profiles returns all ten evaluation profiles keyed by name.
func Profiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range []Profile{
		Campus(), Highway(), Urban(),
		GrandCanal(), VeniceRialto(), Taipei(),
		Shibuya(), Beach(), Warsaw(), UAV(),
	} {
		out[p.Name] = p
	}
	return out
}
