// Package cv simulates the computer-vision substrate the paper builds
// on: an object detector with realistic, condition-dependent misses
// (Faster-RCNN in the paper) and a SORT-style multi-object tracker
// (SORT/DeepSORT in the paper).
//
// The paper's Table 1 argument is that even CV that misses 5–76 % of
// objects per frame still produces a *conservative* estimate of the
// maximum duration any individual is visible, because tracking links
// detections across gaps (and occasionally across distinct objects,
// which only lengthens the estimate). The simulator reproduces exactly
// those failure modes: per-frame Bernoulli misses whose probability
// grows with crowding and shrinks with object size, box jitter, and
// occasional false positives.
package cv

import (
	"math"
	"math/rand"

	"privid/internal/geom"
	"privid/internal/scene"
	"privid/internal/video"
)

// Detection is one detected object in one frame.
type Detection struct {
	Frame int64
	Box   geom.Rect
	Class video.Class
	Conf  float64
	// FalsePositive marks spurious detections. It is ground-truth
	// information available only because this is a simulator; the
	// tracker never reads it, only evaluation statistics do.
	FalsePositive bool
}

// DetectorParams calibrate the simulated detector to a video's
// conditions.
type DetectorParams struct {
	// Base is the per-frame detection probability of a reference-size
	// object in an uncrowded frame.
	Base float64
	// CrowdPenalty is subtracted from the detection probability per
	// log2(1+concurrent private objects): dense scenes (urban) miss
	// far more than sparse ones.
	CrowdPenalty float64
	// SizeRefArea is the box area (px²) at which no size penalty
	// applies; smaller objects are harder to detect.
	SizeRefArea float64
	// SizePenalty is the maximum probability subtracted for a
	// vanishingly small object.
	SizePenalty float64
	// FalsePosRate is the expected number of spurious detections per
	// frame.
	FalsePosRate float64
	// JitterPx is the standard deviation of box-center localization
	// noise.
	JitterPx float64
}

// ParamsFor derives detector parameters from a scene profile's
// calibration fields.
func ParamsFor(p scene.Profile) DetectorParams {
	return DetectorParams{
		Base:         p.DetectBase,
		CrowdPenalty: p.CrowdFactor,
		SizeRefArea:  2500,
		SizePenalty:  0.15,
		FalsePosRate: 0.02,
		JitterPx:     1.5,
	}
}

// Detector simulates per-frame object detection. It is deterministic
// given its seed. Detectors detect only private classes; queries that
// read scene elements (lights, trees) model near-perfect classification
// of large static objects and read them from the frame directly.
type Detector struct {
	P   DetectorParams
	rng *rand.Rand
	w   float64
	h   float64
}

// NewDetector returns a detector over frames of the given dimensions.
func NewDetector(p DetectorParams, frameW, frameH float64, seed int64) *Detector {
	return &Detector{P: p, rng: rand.New(rand.NewSource(seed)), w: frameW, h: frameH}
}

// Detect returns the detections for one frame.
func (d *Detector) Detect(f video.Frame) []Detection {
	nPrivate := 0
	for _, o := range f.Objects {
		if o.Class.Private() {
			nPrivate++
		}
	}
	crowd := d.P.CrowdPenalty * math.Log2(1+float64(nPrivate))
	var out []Detection
	for _, o := range f.Objects {
		if !o.Class.Private() {
			continue
		}
		p := d.P.Base - crowd
		if area := o.Box.Area(); area < d.P.SizeRefArea && d.P.SizeRefArea > 0 {
			p -= d.P.SizePenalty * (1 - area/d.P.SizeRefArea)
		}
		if p < 0.02 {
			p = 0.02 // even terrible conditions catch the odd frame
		}
		if d.rng.Float64() >= p {
			continue
		}
		jx := d.rng.NormFloat64() * d.P.JitterPx
		jy := d.rng.NormFloat64() * d.P.JitterPx
		out = append(out, Detection{
			Frame: f.Index,
			Box:   o.Box.Translate(geom.Point{X: jx, Y: jy}),
			Class: o.Class,
			Conf:  p,
		})
	}
	// False positives: short-lived spurious boxes at random positions.
	nfp := 0
	for fp := d.P.FalsePosRate; fp > 0; fp-- {
		pr := fp
		if pr > 1 {
			pr = 1
		}
		if d.rng.Float64() < pr {
			nfp++
		}
	}
	for i := 0; i < nfp; i++ {
		cx := d.rng.Float64() * d.w
		cy := d.rng.Float64() * d.h
		out = append(out, Detection{
			Frame:         f.Index,
			Box:           geom.RectAround(geom.Point{X: cx, Y: cy}, 30, 30),
			Class:         video.Person,
			Conf:          0.5,
			FalsePositive: true,
		})
	}
	return out
}
