package core

// The privacy-critical tail of the pipeline: reserve, noise, commit,
// finalize — in that order (see admit).

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

// admission is what a successful reserve hands to noise and commit:
// the touched cameras (sorted), the audit timestamp, and the held
// reservations. The per-camera charges travel beside it (see execute).
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
// lines 1–5, atomic across cameras) before any chunk is touched. The
// output-commit rule — no value leaves before the charge behind it is
// durable — shapes three phases, so the fsync happens outside the
// engine lock and concurrent queries' commits share it:
//
//  1. Reserve (admit): under the lock, dp.ReserveAll checks every
//     touched camera's ledger and holds the charges as reservations
//     (they count against competing queries); if any single camera
//     denies, every reservation is dropped and no camera is charged
//     anything. The program then runs; a failure returns them exactly.
//  2. Noise (draw): under the lock, with the reservations held, draw
//     every release's noise and read each camera's remaining budget.
//  3. Commit (commit): outside the lock, one WAL commit carries the
//     charges, the audit entry and — for a scheduled job — the
//     terminal job record holding the noised result, in that order.
//     Success finalizes the reservations; failure releases them exactly
//     and drops the drawn values, so the analyst never sees a result
//     whose charge is not on disk.
//
// A torn commit recovers a prefix of those records: charges without
// their job (over-charged, at-least-once), never a job without its
// charges.
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
			rec := store.AuditRecord(denied)
			_ = e.store.Commit(store.Record{Audit: &rec})
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

// draw is phase 2 of admission: it draws every release's noise and
// reports each camera's budget impact. The reservations are still held,
// and RemainingOver counts them as spent, so Remaining reads what it
// will once commit finalizes them.
func (e *Engine) draw(adm admission, charges map[string][]dp.Charge, rels []rel.Release, sp *obs.Span) *Result {
	res := &Result{}
	_ = e.stage(sp, "noise", func(sp *obs.Span) error { // never fails
		e.mu.Lock()
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
		e.mu.Unlock()
		sp.Set("releases", len(res.Releases))
		sp.Set("epsilon", res.EpsilonSpent)
		return nil
	})
	return res
}

// commit is phase 3 of admission: every charge, the audit entry and,
// when job is non-nil, the job record it builds from res go to the
// durable store in one commit. Success finalizes the reservations;
// failure withholds res and releases them, unless the store reports the
// commit's outcome unknown (store.ErrOutcomeUnknown).
func (e *Engine) commit(adm admission, charges map[string][]dp.Charge, tag string, res *Result, job func(*Result) *store.JobRecord, sp *obs.Span) error {
	return e.stage(sp, "wal_commit", func(sp *obs.Span) error {
		if tag == "" {
			tag = chargeFingerprint(adm.camNames, charges)
		}
		recs := make([]store.Record, 0, len(res.Releases)+2)
		for _, camName := range adm.camNames {
			for _, c := range charges[camName] {
				iv := c.Interval
				recs = append(recs, store.Record{Charge: &store.ChargeRecord{Camera: camName, Start: iv.Start, End: iv.End, Eps: c.Eps, Query: tag}})
			}
		}
		audit := AuditEntry{At: adm.at, Cameras: adm.camNames, Releases: len(res.Releases), EpsilonSpent: res.EpsilonSpent}
		rec := store.AuditRecord(audit)
		recs = append(recs, store.Record{Audit: &rec})
		if job != nil {
			recs = append(recs, store.Record{Job: job(res)})
		}
		sp.Set("records", len(recs))
		err := e.store.Commit(recs...)
		// A commit whose outcome is unknown may recover at the next
		// open, so its charges stay spent here too: over-charged until
		// the restart, never under-charged.
		reason, unknown := "charge not persisted", errors.Is(err, store.ErrOutcomeUnknown)
		if unknown {
			reason = "charge outcome unknown until restart"
		}
		e.mu.Lock()
		if err != nil && !unknown {
			adm.resv.Release()
		} else {
			adm.resv.Finalize()
		}
		if err != nil {
			audit = AuditEntry{Cameras: adm.camNames, Denied: true, Reason: reason + ": " + err.Error()}
		}
		e.recordAudit(audit)
		e.mu.Unlock()
		if err != nil {
			sp.Set("outcome", "failed")
			return fmt.Errorf("core: %s, result withheld: %w", reason, err)
		}
		return nil
	})
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
