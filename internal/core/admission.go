package core

// The privacy-critical tail of the pipeline: reserve, persist,
// finalize, noise — in that order (see admit).

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"privid/internal/dp"
	"privid/internal/obs"
	"privid/internal/rel"
	"privid/internal/store"
	"privid/internal/vtime"
)

// admission is what a successful reserve hands to persist and release:
// the touched cameras (sorted), the audit timestamp, and the held
// reservations. The per-camera charges travel beside it (see
// executeStages).
type admission struct {
	camNames []string
	at       time.Time
	resv     *dp.MultiReserve
}

// buildCharges derives the per-camera charges into charges and returns
// the touched cameras, sorted. Each release charges every camera it
// depends on, over that camera's own charge window (its queried span
// clipped to the release's span) mapped through the camera's own frame
// clock.
func (e *Engine) buildCharges(charges map[string][]dp.Charge, rels []rel.Release) ([]string, error) {
	for _, r := range rels {
		for _, camName := range r.Cameras {
			cam, err := e.lookupCamera(camName)
			if err != nil {
				return nil, err
			}
			w, ok := r.CamWindows[camName]
			if !ok {
				w = [2]time.Time{r.Begin, r.End}
			}
			clock := cam.cfg.Source.Info().Clock()
			iv := vtime.NewInterval(clock.FrameAt(w[0]), clock.FrameAt(w[1]))
			charges[camName] = append(charges[camName], dp.Charge{Interval: iv, Eps: r.Epsilon})
		}
	}
	camNames := make([]string, 0, len(charges))
	for camName := range charges {
		camNames = append(camNames, camName)
	}
	sort.Strings(camNames)
	return camNames, nil
}

// admit builds the charges and runs phase 1 of admission (Algorithm 1
// lines 1–5, atomic across cameras). Admission has three phases so the
// durable fsync happens outside the engine lock and concurrent queries'
// charges share group commits:
//
//  1. Reserve (admit): under the lock, dp.ReserveAll checks every
//     touched camera's ledger and holds the charges as reservations
//     (they block competing queries); if any single camera denies,
//     every reservation is dropped and no camera is charged anything.
//  2. Persist: outside the lock, append every charge plus the audit
//     entry to the WAL and fsync. A failure releases the reservations
//     exactly and denies the query — the analyst never sees a noised
//     result whose charge is not on disk.
//  3. Finalize (release): under the lock, move reservations into the
//     spent ledgers, then noise and release.
//
// A crash between 2 and 3 leaves charges on disk for a result nobody
// received: recovery over-charges (at-least-once), never
// under-charges.
func (e *Engine) admit(charges map[string][]dp.Charge, rels []rel.Release, sp *obs.Span) (adm admission, err error) {
	adm.camNames, err = e.buildCharges(charges, rels)
	if err != nil {
		return adm, err
	}
	err = e.stage(sp, "admit", func(sp *obs.Span) error {
		for _, camName := range adm.camNames {
			var eps float64
			for _, c := range charges[camName] {
				eps += c.Eps
			}
			camSp := sp.Child("reserve")
			camSp.Set("camera", camName)
			camSp.Set("charges", len(charges[camName]))
			camSp.Set("epsilon", eps)
			camSp.End()
		}
		e.mu.Lock()
		demands := make([]dp.Demand, 0, len(adm.camNames))
		for _, camName := range adm.camNames {
			cam := e.cameras[camName]
			demands = append(demands, dp.Demand{
				Ledger:    cam.ledger,
				Charges:   charges[camName],
				RhoFrames: cam.cfg.Policy.RhoFrames(cam.cfg.Source.Info().FPS),
			})
		}
		resv, err := dp.ReserveAll(demands)
		if err != nil {
			denied := AuditEntry{At: e.clock(), Cameras: adm.camNames, Denied: true, Reason: err.Error()}
			e.recordAudit(denied)
			e.mu.Unlock()
			// Best-effort: the denial consumed no budget, so accountability
			// — unlike charges — may tolerate a lost entry when the store
			// itself is failing.
			_ = e.store.Commit(store.Record{Audit: &store.AuditRecord{
				At: denied.At, Cameras: denied.Cameras, Denied: true, Reason: denied.Reason,
			}})
			sp.Set("outcome", "denied")
			sp.Set("reason", err.Error())
			var exhausted *dp.ErrBudgetExhausted
			if errors.As(err, &exhausted) {
				sp.Set("denied_camera", exhausted.Camera)
			}
			return err
		}
		// Stamp the audit time under the lock: Options.Now test clocks
		// need not be goroutine-safe, and every other clock() call site
		// holds e.mu.
		adm.at, adm.resv = e.clock(), resv
		e.mu.Unlock()
		sp.Set("outcome", "reserved")
		return nil
	})
	return adm, err
}

// persist is phase 2 of admission: every charge plus the audit entry go
// to the durable store in one commit. On failure the reservations are
// released and the result is withheld.
func (e *Engine) persist(adm admission, charges map[string][]dp.Charge, tag string, rels []rel.Release, sp *obs.Span) error {
	if tag == "" {
		tag = chargeFingerprint(adm.camNames, charges)
	}
	var totalEps float64
	for _, r := range rels {
		totalEps += r.Epsilon
	}
	recs := make([]store.Record, 0, len(rels)+1)
	for _, camName := range adm.camNames {
		for _, c := range charges[camName] {
			recs = append(recs, store.Record{Charge: &store.ChargeRecord{
				Camera: camName,
				Start:  c.Interval.Start,
				End:    c.Interval.End,
				Eps:    c.Eps,
				Query:  tag,
			}})
		}
	}
	recs = append(recs, store.Record{Audit: &store.AuditRecord{
		At:           adm.at,
		Cameras:      adm.camNames,
		Releases:     len(rels),
		EpsilonSpent: totalEps,
	}})
	return e.stage(sp, "wal_commit", func(sp *obs.Span) error {
		sp.Set("records", len(recs))
		if err := e.store.Commit(recs...); err != nil {
			e.mu.Lock()
			adm.resv.Release()
			e.recordAudit(AuditEntry{
				Cameras: adm.camNames, Denied: true,
				Reason: "charge not persisted: " + err.Error(),
			})
			e.mu.Unlock()
			sp.Set("outcome", "failed")
			return fmt.Errorf("core: charge not persisted, result withheld: %w", err)
		}
		return nil
	})
}

// release is phase 3 of admission: finalize the reservations, then
// noise every release and report each camera's budget impact.
func (e *Engine) release(adm admission, charges map[string][]dp.Charge, rels []rel.Release, sp *obs.Span) *Result {
	res := &Result{}
	_ = e.stage(sp, "noise", func(sp *obs.Span) error { // never fails
		e.mu.Lock()
		adm.resv.Finalize()
		for _, r := range rels {
			res.Releases = append(res.Releases, e.noiseRelease(r))
			res.EpsilonSpent += r.Epsilon
		}
		for _, camName := range adm.camNames {
			cam := e.cameras[camName]
			cb := CameraBudget{Camera: camName, Remaining: math.Inf(1)}
			for _, c := range charges[camName] {
				cb.EpsilonSpent += c.Eps
				if r := cam.ledger.RemainingOver(c.Interval); r < cb.Remaining {
					cb.Remaining = r
				}
			}
			res.Cameras = append(res.Cameras, cb)
		}
		e.recordAudit(AuditEntry{
			At:           adm.at,
			Cameras:      adm.camNames,
			Releases:     len(res.Releases),
			EpsilonSpent: res.EpsilonSpent,
		})
		e.mu.Unlock()
		sp.Set("releases", len(res.Releases))
		sp.Set("epsilon", res.EpsilonSpent)
		return nil
	})
	return res
}

// chargeFingerprint derives a stable tag for untagged executions from
// the charge set itself.
func chargeFingerprint(camNames []string, charges map[string][]dp.Charge) string {
	h := fnv.New64a()
	for _, camName := range camNames {
		fmt.Fprintf(h, "%s:", camName)
		for _, c := range charges[camName] {
			fmt.Fprintf(h, "[%d,%d)=%g;", c.Interval.Start, c.Interval.End, c.Eps)
		}
	}
	return fmt.Sprintf("auto-%016x", h.Sum64())
}

// noiseRelease applies the Laplace mechanism (or noisy-max for ARGMAX)
// to one release. Caller holds e.mu (the noise stream is shared).
func (e *Engine) noiseRelease(r rel.Release) ReleaseResult {
	out := ReleaseResult{
		Desc:        r.Desc,
		Key:         r.Key,
		HasKey:      r.HasKey,
		Epsilon:     r.Epsilon,
		Sensitivity: r.Sensitivity,
		NoiseScale:  dp.LaplaceScale(r.Sensitivity, r.Epsilon),
		Begin:       r.Begin,
		End:         r.End,
	}
	if len(r.Scores) > 0 {
		out.IsArgmax = true
		best := 0
		bestScore := 0.0
		for i, s := range r.Scores {
			noisy := s.Raw + e.noise.Laplace(out.NoiseScale)
			if i == 0 || noisy > bestScore {
				best = i
				bestScore = noisy
			}
		}
		out.ArgmaxKey = r.Scores[best].Key
		if e.opts.Evaluation {
			// Raw winner for accuracy studies.
			rawBest := 0
			for i, s := range r.Scores {
				if s.Raw > r.Scores[rawBest].Raw {
					rawBest = i
				}
			}
			out.RawArgmaxKey = r.Scores[rawBest].Key
			out.RawSet = true
		}
		return out
	}
	out.Value = r.Raw + e.noise.Laplace(out.NoiseScale)
	if e.opts.Evaluation {
		out.Raw = r.Raw
		out.RawSet = true
	}
	return out
}
