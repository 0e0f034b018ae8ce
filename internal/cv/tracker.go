package cv

import (
	"sort"

	"privid/internal/geom"
)

// TrackerParams configure the SORT-style tracker. MaxAge and MinHits
// mirror the hyperparameters the paper tunes per video (Appendix A,
// Tables 4–5).
type TrackerParams struct {
	// IoUThreshold is the minimum IoU for associating a detection with
	// an existing track.
	IoUThreshold float64
	// MaxAge is how many frames a track survives without a matching
	// detection before it is terminated. Large values bridge long
	// detector gaps — and occasionally chain distinct objects, which
	// makes duration estimates conservative (longer), exactly the
	// bias Table 1 relies on.
	MaxAge int64
	// MinHits is the minimum number of matched detections for a track
	// to be reported (suppresses false-positive tracks).
	MinHits int
	// DistGate enables a second association pass: tracks and
	// detections left unmatched by IoU are paired when their centers
	// are within DistGate (scaled by the gap length). This stands in
	// for DeepSORT's appearance-based re-association and is what makes
	// long tracks survive detector gaps. 0 disables the pass.
	DistGate float64
}

// Track is one completed trajectory.
type Track struct {
	ID    int
	First int64 // frame of first detection
	Last  int64 // frame of last detection
	Hits  int   // number of matched detections
}

// Frames returns the track's extent in frames (inclusive of both ends).
func (t Track) Frames() int64 { return t.Last - t.First + 1 }

type trackState struct {
	Track
	box      geom.Rect
	vel      geom.Point // px per frame
	lastSeen int64
}

// Tracker associates per-frame detections into tracks using greedy
// IoU matching against constant-velocity predictions — the core of
// SORT without the Kalman smoothing (which only refines boxes, not
// track lifetimes, the quantity Privid consumes).
type Tracker struct {
	P      TrackerParams
	nextID int
	active []*trackState
	done   []Track
}

// NewTracker returns an empty tracker.
func NewTracker(p TrackerParams) *Tracker { return &Tracker{P: p} }

// predict returns the track's box extrapolated to the given frame.
func (s *trackState) predict(frame int64) geom.Rect {
	dt := float64(frame - s.lastSeen)
	return s.box.Translate(s.vel.Scale(dt))
}

// Observe feeds the detections of one frame. Frames must be fed in
// increasing order; frames with no detections may be skipped, but
// calling Observe with an empty slice also ages tracks correctly.
func (t *Tracker) Observe(frame int64, dets []Detection) {
	// Expire stale tracks first.
	t.expire(frame)

	type cand struct {
		ti, di int
		iou    float64
	}
	var cands []cand
	for ti, tr := range t.active {
		pred := tr.predict(frame)
		for di, d := range dets {
			if iou := pred.IoU(d.Box); iou >= t.P.IoUThreshold {
				cands = append(cands, cand{ti, di, iou})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].iou > cands[j].iou })

	usedT := make(map[int]bool)
	usedD := make(map[int]bool)
	match := func(ti, di int) {
		usedT[ti] = true
		usedD[di] = true
		tr := t.active[ti]
		d := dets[di]
		if dt := float64(d.Frame - tr.lastSeen); dt > 0 {
			nc, oc := d.Box.Center(), tr.box.Center()
			inst := nc.Sub(oc).Scale(1 / dt)
			// Exponentially smooth the velocity: raw frame-to-frame
			// velocity is dominated by localization jitter, and an
			// unsmoothed estimate makes gap predictions drift (the
			// role the Kalman filter plays in SORT).
			tr.vel = tr.vel.Scale(0.7).Add(inst.Scale(0.3))
		}
		tr.box = d.Box
		tr.lastSeen = d.Frame
		tr.Last = d.Frame
		tr.Hits++
	}
	for _, c := range cands {
		if usedT[c.ti] || usedD[c.di] {
			continue
		}
		match(c.ti, c.di)
	}
	// Second pass: distance-gated re-association of the leftovers.
	if t.P.DistGate > 0 {
		type dcand struct {
			ti, di int
			dist   float64
		}
		var dcands []dcand
		for ti, tr := range t.active {
			if usedT[ti] {
				continue
			}
			pc := tr.predict(frame).Center()
			gate := t.P.DistGate + 2*float64(frame-tr.lastSeen)
			for di, d := range dets {
				if usedD[di] {
					continue
				}
				if dist := pc.Dist(d.Box.Center()); dist <= gate {
					dcands = append(dcands, dcand{ti, di, dist})
				}
			}
		}
		sort.Slice(dcands, func(i, j int) bool { return dcands[i].dist < dcands[j].dist })
		for _, c := range dcands {
			if usedT[c.ti] || usedD[c.di] {
				continue
			}
			match(c.ti, c.di)
		}
	}
	for di, d := range dets {
		if usedD[di] {
			continue
		}
		t.nextID++
		t.active = append(t.active, &trackState{
			Track:    Track{ID: t.nextID, First: d.Frame, Last: d.Frame, Hits: 1},
			box:      d.Box,
			lastSeen: d.Frame,
		})
	}
}

// expire finalizes tracks unseen for more than MaxAge frames.
func (t *Tracker) expire(frame int64) {
	kept := t.active[:0]
	for _, tr := range t.active {
		if frame-tr.lastSeen > t.P.MaxAge {
			if tr.Hits >= t.P.MinHits {
				t.done = append(t.done, tr.Track)
			}
			continue
		}
		kept = append(kept, tr)
	}
	t.active = kept
}

// Flush finalizes all remaining tracks and returns every completed
// track, ordered by first frame.
func (t *Tracker) Flush() []Track {
	for _, tr := range t.active {
		if tr.Hits >= t.P.MinHits {
			t.done = append(t.done, tr.Track)
		}
	}
	t.active = nil
	out := t.done
	t.done = nil
	sort.Slice(out, func(i, j int) bool { return out[i].First < out[j].First })
	return out
}
