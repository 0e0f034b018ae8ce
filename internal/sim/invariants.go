package sim

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"privid/internal/store"
	"privid/internal/vtime"
)

// noiseSigmas bounds |noised − raw| in units of the Laplace scale b:
// P(|X| > 50b) = e^-50 ≈ 2e-22, so a trip is a bug, not bad luck.
const noiseSigmas = 50

const epsTol = 1e-6

// acked accumulates the per-frame budget the driver KNOWS was spent:
// every release an analyst actually received, charged over its served
// [Begin, End) span — an independent reconstruction of the engine's
// charge construction (camera spans clipped to the release span; in
// sim geometry the clip is a no-op because every query window lies
// inside every stream).
type acked struct {
	f     *Fleet
	clock vtime.Clock
	// diff[cam] is a difference array over frames; prefix-summing
	// yields ε spent at each frame.
	diff map[int][]float64
}

func newAcked(f *Fleet) *acked {
	return &acked{
		f:     f,
		clock: vtime.Clock{Start: f.Start, Rate: vtime.FrameRate(f.Cfg.FPS)},
		diff:  map[int][]float64{},
	}
}

func (a *acked) add(cam int, begin, end time.Time, eps float64) {
	s, e := a.clock.FrameAt(begin), a.clock.FrameAt(end)
	if s < 0 {
		s = 0
	}
	if e > a.f.Frames {
		e = a.f.Frames
	}
	if e <= s {
		return
	}
	d := a.diff[cam]
	if d == nil {
		d = make([]float64, a.f.Frames+1)
		a.diff[cam] = d
	}
	d[s] += eps
	d[e] -= eps
}

// spent resolves the difference arrays into per-frame spent curves.
func (a *acked) spent() map[int][]float64 {
	out := map[int][]float64{}
	for cam, d := range a.diff {
		cur := make([]float64, a.f.Frames)
		run := 0.0
		for i := int64(0); i < a.f.Frames; i++ {
			run += d[i]
			cur[i] = run
		}
		out[cam] = cur
	}
	return out
}

// sampleFrames picks the frames worth checking on one camera: every
// point where the acked curve changes (window boundaries), midpoints
// between changes, and the stream edges.
func sampleFrames(curve []float64, frames int64) []int64 {
	set := map[int64]bool{0: true, frames - 1: true, frames / 2: true}
	if curve != nil {
		prev := 0.0
		last := int64(0)
		for i := int64(0); i < frames; i++ {
			if curve[i] != prev {
				set[i] = true
				if i > 0 {
					set[i-1] = true
				}
				set[(last+i)/2] = true
				prev = curve[i]
				last = i
			}
		}
	}
	out := make([]int64, 0, len(set))
	for f := range set {
		if f >= 0 && f < frames {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkInvariants runs the four post-run invariant classes. The stack
// is quiescent (every goroutine joined) and in its final incarnation.
func checkInvariants(r *runner) {
	h := r.h
	f := r.f
	eps := f.Cfg.Epsilon
	hadCrash := r.rep.Crashes > 0
	chaos := r.sc.Chaos.enabled()
	r.mu.RLock()
	totalLossy := r.lossy
	r.mu.RUnlock()

	ack := newAcked(f)

	// ---- class 4: jobs — outcomes, loss only across crashes, -------
	// terminal results immutable, and build the acked ledger as we go.
	r.recMu.Lock()
	recs := append([]*opOutcome(nil), r.recs...)
	r.recMu.Unlock()
	for _, rec := range recs {
		switch rec.State {
		case "refused":
			// Background load is fire-and-forget from one analyst name;
			// tripping the per-analyst in-flight limit is the admission
			// layer working, not a violation. Planned ops are paced (one
			// in flight per analyst) and must always be admitted.
			if !rec.Bg {
				r.violatef("op %s/%s refused: %s", rec.Op.Analyst, rec.Op.Kind, rec.Err)
			}
		case "lost":
			if rec.FinalLossy == rec.SubmitLossy {
				r.violatef("job %s lost without a durability fault (op %s/%s)",
					rec.JobID, rec.Op.Analyst, rec.Op.Kind)
			}
		case "done":
			if rec.Job.Result == nil {
				r.violatef("job %s done without result", rec.JobID)
				continue
			}
			for _, rel := range rec.Job.Result.Releases {
				for _, cam := range rec.Op.Cams {
					ack.add(cam, rel.Begin, rel.End, rel.Epsilon)
				}
			}
		}
	}

	// Terminal results must be immutable across the restarts that
	// already happened: re-poll each recorded job and demand a
	// bit-identical answer. A done job commits with its charges, so no
	// restart may lose it; a failed job may 404 once a durability-loss
	// epoch — crash, or restart over a torn WAL — postdates the submit.
	for _, rec := range recs {
		if rec.State != "done" && rec.State != "failed" {
			continue
		}
		j2, ok := h.Job(rec.JobID)
		if !ok {
			if rec.State == "done" || rec.SubmitLossy == totalLossy {
				r.violatef("%s job %s vanished (durability-loss epochs since submit: %d)", rec.State, rec.JobID, totalLossy-rec.SubmitLossy)
			}
			continue
		}
		if j2.State != rec.State {
			r.violatef("job %s changed state %s -> %s", rec.JobID, rec.State, j2.State)
			continue
		}
		if rec.State != "done" {
			continue
		}
		// The whole decoded result: every release field, the ε spent
		// and each camera's share. A poll writes the bytes committed,
		// so nothing may differ.
		if !reflect.DeepEqual(rec.Job.Result, j2.Result) {
			r.violatef("job %s result mutated across restart: %+v -> %+v",
				rec.JobID, rec.Job.Result, j2.Result)
		}
	}

	// ---- class 2: ground truth + noise envelope --------------------
	for _, rec := range recs {
		o := rec.Op
		if o.Kind == opDrain && (chaos || hadCrash) {
			continue // a WAL fault inside the probe sequence voids its script
		}
		switch o.Kind {
		case opCount, opMulti, opDrain:
			if o.WantDenied {
				if rec.State != "failed" || !containsBudgetExhausted(rec.Err) {
					r.violatef("probe expected denial, got %s (%s)", rec.State, rec.Err)
				}
				continue
			}
			if rec.State == "lost" {
				continue
			}
			if rec.State != "done" {
				if !chaos {
					r.violatef("op %s/%s failed on a clean run: %s", o.Analyst, o.Kind, rec.Err)
				}
				continue
			}
			rels := rec.Job.Result.Releases
			if len(rels) != 1 {
				r.violatef("op %s/%s: %d releases, want 1", o.Analyst, o.Kind, len(rels))
				continue
			}
			rel := rels[0]
			want := o.expectedGroundTruth(f, r.p.ChunkSec)
			if !rel.RawSet {
				r.violatef("op %s/%s: release missing raw value", o.Analyst, o.Kind)
			} else if rel.Raw != want {
				r.violatef("op %s/%s cams %v [%d,%d)m: raw %v != ground truth %v",
					o.Analyst, o.Kind, o.Cams, o.BeginMin, o.EndMin, rel.Raw, want)
			}
			if math.Abs(rel.Value-rel.Raw) > noiseSigmas*rel.NoiseScale {
				r.violatef("op %s/%s: |noised %v - raw %v| > %d scales (b=%v)",
					o.Analyst, o.Kind, rel.Value, rel.Raw, noiseSigmas, rel.NoiseScale)
			}
			if rel.Epsilon != o.Eps {
				r.violatef("op %s/%s: released eps %v != consuming %v",
					o.Analyst, o.Kind, rel.Epsilon, o.Eps)
			}
			if rel.Sensitivity > 0 && math.Abs(rel.NoiseScale-rel.Sensitivity/rel.Epsilon) > 1e-9*rel.NoiseScale {
				r.violatef("op %s/%s: noise scale %v != sensitivity %v / eps %v",
					o.Analyst, o.Kind, rel.NoiseScale, rel.Sensitivity, rel.Epsilon)
			}
		}
	}

	// ---- class 4b + 2b: standing queries — every elapsed non-empty -
	// bucket released exactly once, with exact per-bucket ground truth.
	for _, sr := range r.standing {
		sp := sr.plan
		expected := f.ObjChunksByBucket(sp.Cam, 0, f.Cfg.Minutes, r.p.ChunkSec, sp.BinSec)
		sr.mu.Lock()
		for key, n := range sr.count {
			if n != 1 {
				r.violatef("standing %d: bucket %q released %d times", sr.idx, key, n)
			}
		}
		seen := map[int64]bool{}
		for _, rec := range sr.recs {
			// The charge is real whatever else is wrong with the
			// release, so the ledger reconstruction always counts it.
			ack.add(sp.Cam, rec.Begin, rec.End, rec.Eps)
			seen[rec.Bucket] = true
			want, ok := expected[rec.Bucket]
			if !ok {
				r.violatef("standing %d: released bucket %d outside the window", sr.idx, rec.Bucket)
				continue
			}
			if !rec.RawSet || rec.Raw != want {
				r.violatef("standing %d bucket %d: raw %v != ground truth %v",
					sr.idx, rec.Bucket, rec.Raw, want)
			}
			if math.Abs(rec.Value-rec.Raw) > noiseSigmas*rec.Scale {
				r.violatef("standing %d bucket %d: |noised %v - raw %v| > %d scales",
					sr.idx, rec.Bucket, rec.Value, rec.Raw, noiseSigmas)
			}
			// Each bucket release consumes the full CONSUMING ε over
			// its own bucket span (buckets partition the window, so
			// per-frame cost stays ε_consuming).
			if rec.Eps != sp.Eps {
				r.violatef("standing %d bucket %d: eps %v != consuming %v",
					sr.idx, rec.Bucket, rec.Eps, sp.Eps)
			}
		}
		for bucket := range expected {
			if !seen[bucket] {
				r.violatef("standing %d: bucket %d (truth %v) never released",
					sr.idx, bucket, expected[bucket])
			}
		}
		if !chaos && len(sr.errs) > 0 {
			r.violatef("standing %d: %d advance errors on a clean run: %v",
				sr.idx, len(sr.errs), sr.errs[0])
		}
		sr.mu.Unlock()
	}

	// ---- class 1: ledger identity, live engine ---------------------
	// Clean runs (no crash): remaining == ε − acked at every sampled
	// frame. Crash runs: remaining ≤ ε − acked (the engine may have
	// durably charged work whose ack the crash swallowed — spending
	// at-least-once is the safe direction), and never below the fully
	// drained floor.
	spent := ack.spent()
	liveRem := map[int]map[int64]float64{}
	camIdxs := checkedCameras(f, spent)
	for _, cam := range camIdxs {
		curve := spent[cam]
		samples := sampleFrames(curve, f.Frames)
		liveRem[cam] = map[int64]float64{}
		for _, fr := range samples {
			rem, err := h.Engine.Remaining(f.Cams[cam].Name, fr)
			if err != nil {
				r.violatef("remaining(%s,%d): %v", f.Cams[cam].Name, fr, err)
				continue
			}
			liveRem[cam][fr] = rem
			ac := 0.0
			if curve != nil {
				ac = curve[fr]
			}
			if hadCrash {
				if rem > eps-ac+epsTol {
					r.violatef("cam %s frame %d: remaining %v > eps %v - acked %v (charges lost)",
						f.Cams[cam].Name, fr, rem, eps, ac)
				}
				if rem < -epsTol {
					r.violatef("cam %s frame %d: remaining %v < 0", f.Cams[cam].Name, fr, rem)
				}
			} else if math.Abs(rem-(eps-ac)) > epsTol {
				r.violatef("cam %s frame %d: remaining %v != eps %v - acked %v",
					f.Cams[cam].Name, fr, rem, eps, ac)
			}
		}
	}

	// ---- class 3: stats self-consistency ---------------------------
	checkStats(r, spent)

	// ---- class 1b: the WAL read back after shutdown agrees ---------
	// with both the live engine (exactly) and the acked ledger
	// (exactly clean, at-least-once after crashes).
	h.Stop()
	st, err := store.ReadState(r.sc.StateDir, 0)
	if err != nil {
		r.violatef("read state after stop: %v", err)
		return
	}
	for _, cam := range camIdxs {
		name := f.Cams[cam].Name
		curve := spent[cam]
		for fr, rem := range liveRem[cam] {
			wal := st.Spent(name, fr)
			if math.Abs((eps-rem)-wal) > epsTol {
				r.violatef("cam %s frame %d: WAL spent %v != eps - live remaining %v",
					name, fr, wal, eps-rem)
			}
			ac := 0.0
			if curve != nil {
				ac = curve[fr]
			}
			if wal < ac-epsTol {
				r.violatef("cam %s frame %d: WAL spent %v < acked %v (charge lost)",
					name, fr, wal, ac)
			}
			if !hadCrash && math.Abs(wal-ac) > epsTol {
				r.violatef("cam %s frame %d: WAL spent %v != acked %v on a crash-free run",
					name, fr, wal, ac)
			}
		}
	}
}

// checkedCameras picks which cameras get per-frame ledger checks:
// every camera with acked activity, plus (bounded) a sample of idle
// ones — a 1000-camera fleet shouldn't cost 1000×samples HTTP-less
// engine calls for cameras provably untouched.
func checkedCameras(f *Fleet, spent map[int][]float64) []int {
	idxs := make([]int, 0, len(spent)+8)
	for cam := range spent {
		idxs = append(idxs, cam)
	}
	sort.Ints(idxs)
	stride := len(f.Cams)/16 + 1
	for cam := 0; cam < len(f.Cams); cam += stride {
		if _, ok := spent[cam]; !ok {
			idxs = append(idxs, cam)
		}
	}
	return idxs
}

// checkStats checks /v1/stats at quiescence: the counters' structural
// identities, no waiting, queued or running work, and each camera's
// worst-case remaining against the acked ledger. That every counter
// field equals its metric family needs no check here: core renders
// both from one table, and package server pins the agreement.
func checkStats(r *runner, spent map[int][]float64) {
	f := r.f
	sched, cams, groups := r.h.Stats()
	cc := groups["chunk_cache"]
	if hr := cc["hit_rate"]; hr < 0 || hr > 1 {
		r.violatef("stats: hit_rate %v outside [0,1]", hr)
	}
	if cc["max_bytes"] > 0 && cc["bytes"] > cc["max_bytes"] {
		r.violatef("stats: cache bytes %v > max %v", cc["bytes"], cc["max_bytes"])
	}
	if cc["puts"] > cc["misses"] {
		r.violatef("stats: cache puts %v > misses %v", cc["puts"], cc["misses"])
	}
	if w := groups["singleflight"]["waiting"]; w != 0 {
		r.violatef("stats: %v singleflight waiters at quiescence", w)
	}
	if sched.Queued != 0 || sched.Running != 0 {
		r.violatef("stats: %d queued, %d running jobs at quiescence", sched.Queued, sched.Running)
	}

	// Per-camera worst-case remaining relates to the acked ledger like
	// the per-frame check does.
	if len(cams) != len(f.Cams) {
		r.violatef("stats: %d cameras on the wire, fleet has %d", len(cams), len(f.Cams))
	}
	byName := map[string]float64{}
	for _, c := range cams {
		byName[c.Name] = c.Remaining
	}
	hadCrash := r.rep.Crashes > 0
	for cam, curve := range spent {
		maxAcked := 0.0
		for _, v := range curve {
			if v > maxAcked {
				maxAcked = v
			}
		}
		rem, ok := byName[f.Cams[cam].Name]
		if !ok {
			r.violatef("stats: camera %s missing from budgets", f.Cams[cam].Name)
			continue
		}
		floor := f.Cfg.Epsilon - maxAcked
		if hadCrash {
			if rem > floor+epsTol {
				r.violatef("cam %s: worst-case remaining %v > eps - max acked %v",
					f.Cams[cam].Name, rem, floor)
			}
		} else if math.Abs(rem-floor) > epsTol {
			r.violatef("cam %s: worst-case remaining %v != eps - max acked %v",
				f.Cams[cam].Name, rem, floor)
		}
	}
}

func containsBudgetExhausted(s string) bool {
	return strings.Contains(s, "budget exhausted")
}
