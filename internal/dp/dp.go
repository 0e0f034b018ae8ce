// Package dp implements Privid's differential-privacy core: the
// Laplace mechanism used to noise every data release, the per-frame
// privacy-budget ledger of Algorithm 1 (§6.4), and the
// privacy-degradation analysis of Appendix C.
package dp

import (
	"fmt"
	"math"
	"math/rand"

	"privid/internal/intervalmap"
	"privid/internal/vtime"
)

// Noise samples Laplace noise. It is deterministic given its seed so
// experiments are reproducible; a deployment would swap in a
// cryptographically secure source (Appendix B's PRNG requirement).
type Noise struct {
	rng *rand.Rand
}

// NewNoise returns a sampler seeded deterministically.
func NewNoise(seed int64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed))}
}

// Laplace returns one sample from Laplace(0, scale) via inverse-CDF
// sampling. scale <= 0 returns 0 (a zero-sensitivity release needs no
// noise).
func (n *Noise) Laplace(scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	u := n.rng.Float64() - 0.5
	if u == 0 {
		return 0
	}
	return -scale * sign(u) * math.Log(1-2*math.Abs(u))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// LaplaceScale returns the noise scale b = Δ/ε for a release of the
// given sensitivity and budget.
func LaplaceScale(sensitivity, epsilon float64) float64 {
	if epsilon <= 0 {
		return math.Inf(1)
	}
	return sensitivity / epsilon
}

// ErrBudgetExhausted is returned when a query asks for more budget
// than some frame in its (ρ-expanded) interval has left. The query is
// denied without consuming anything.
type ErrBudgetExhausted struct {
	Camera    string
	Frame     int64
	Remaining float64
	Requested float64
}

// Error implements the error interface.
func (e *ErrBudgetExhausted) Error() string {
	return fmt.Sprintf("dp: budget exhausted on camera %s at frame %d (remaining %.4g, requested %.4g)",
		e.Camera, e.Frame, e.Remaining, e.Requested)
}

// Ledger tracks the privacy budget spent on every frame of one camera.
// Privid assigns a separate budget of ε to each frame (§6.4); the
// ledger stores the spent amount as a piecewise-constant function so
// memory scales with the number of queries, not frames.
//
// Ledgers are not safe for concurrent use; the engine serializes
// access. Admission is Reserve, then the caller's durable commit, then
// Finalize (or Release when the commit failed): the charge is recorded
// before it is spent, and spent before any result it backs is
// released.
type Ledger struct {
	camera  string
	epsilon float64 // per-frame budget εC
	spent   intervalmap.Map

	// reserved holds admitted-but-not-yet-committed charges. They
	// count against admission and Remaining exactly like spent budget,
	// but live as charge lists so releasing a reservation restores the
	// ledger bit-for-bit (no floating-point cancellation residue).
	reserved []reservation
	resSeq   int64
	// pend overlays the reservations' charges, sized by the in-flight
	// charges, never the ledger's history; rebuilt in place once they
	// change.
	pend   intervalmap.Map
	pendOK bool
}

type reservation struct {
	id      int64
	charges []Charge
}

// NewLedger returns a fresh ledger with per-frame budget eps.
func NewLedger(camera string, eps float64) *Ledger {
	return &Ledger{camera: camera, epsilon: eps}
}

// Epsilon returns the per-frame budget εC.
func (l *Ledger) Epsilon() float64 { return l.epsilon }

// Remaining returns the unspent budget at one frame, counting
// outstanding reservations as spent.
func (l *Ledger) Remaining(frame int64) float64 {
	return l.epsilon - l.spent.Get(frame) - l.pending().Get(frame)
}

// pending returns the outstanding reservations as one overlay map.
func (l *Ledger) pending() *intervalmap.Map {
	if !l.pendOK {
		// Rebuilt in place: the overlay is a sum of bounded ranges, so it
		// is zero past its last breakpoint, and zeroing [lo, hi) empties
		// it while keeping its storage for the adds below.
		lo, hi := l.pend.Bounds()
		l.pend.SetRange(lo, hi, 0)
		l.pendOK = true
		for _, res := range l.reserved {
			for _, c := range res.charges {
				l.pend.AddRange(c.Interval.Start, c.Interval.End, c.Eps)
			}
		}
	}
	return &l.pend
}

// Charge is one release's demand on the ledger: eps over the frame
// interval the release depends on.
type Charge struct {
	Interval vtime.Interval
	Eps      float64
}

// Reserve implements Algorithm 1 lines 1–5 for a set of charges
// atomically: every charge must find at least its ε remaining on every
// frame of its interval expanded by ρ on both sides, counting spent
// budget and every outstanding reservation; only then are the charges
// held as a reservation, whose handle is returned. The ρ margin
// ensures a single event segment (duration ≤ ρ) cannot straddle two
// temporally disjoint queries and be paid for twice (Appendix E.2).
// Overlapping charges within one call are summed for the check, so a
// query cannot evade the limit by splitting its demand.
//
// The caller persists the charges durably, then calls Finalize (moving
// the reservation into spent) or Release (dropping it, e.g. when
// persistence failed). Splitting admission from the durable commit lets
// an engine persist outside its admission lock so concurrent queries'
// commits can group into shared fsyncs.
func (l *Ledger) Reserve(charges []Charge, rhoFrames int64) (int64, error) {
	if err := l.check(charges, rhoFrames); err != nil {
		return 0, err
	}
	l.resSeq, l.pendOK = l.resSeq+1, false
	l.reserved = append(l.reserved, reservation{
		id:      l.resSeq,
		charges: append([]Charge(nil), charges...),
	})
	return l.resSeq, nil
}

// Finalize moves a reservation into the spent ledger. Call only after
// the charges are durably persisted. Unknown handles are no-ops.
func (l *Ledger) Finalize(id int64) { l.Spend(l.take(id)) }

// Release drops a reservation without spending: the budget becomes
// available again, exactly (the reservation is removed wholesale, so
// no floating-point residue is left behind). Unknown handles are
// no-ops.
func (l *Ledger) Release(id int64) { l.take(id) }

// take removes a reservation and returns its charges (nil if unknown).
func (l *Ledger) take(id int64) []Charge {
	for i, res := range l.reserved {
		if res.id == id {
			l.reserved, l.pendOK = append(l.reserved[:i], l.reserved[i+1:]...), false
			return res.charges
		}
	}
	return nil
}

// RestoreSpent adds a recovered spent-budget segment during crash
// recovery: eps is the absolute spent value over [start, end) as
// persisted in a snapshot or rebuilt from WAL charges. Restoring
// non-overlapping segments into a fresh ledger reproduces the
// pre-crash spent function exactly.
func (l *Ledger) RestoreSpent(start, end int64, eps float64) {
	l.spent.AddRange(start, end, eps)
}

// check performs Reserve's admission test without holding anything.
func (l *Ledger) check(charges []Charge, rhoFrames int64) error {
	// Build the total demanded budget per frame (expanded intervals).
	var demand intervalmap.Map
	for _, c := range charges {
		if c.Eps < 0 {
			return fmt.Errorf("dp: negative charge %v", c.Eps)
		}
		iv := c.Interval.Expand(rhoFrames)
		demand.AddRange(iv.Start, iv.End, c.Eps)
	}
	// Outstanding reservations count as spent: an admitted-but-not-
	// yet-committed charge must block a competing query just like a
	// committed one. They are read from the overlay, not folded into a
	// clone of the whole spent map on the admission hot path.
	pend := l.pending()
	// spentMax returns the maximum of spent+reserved over [s, e) and a
	// real frame attaining it (so denials report a concrete frame).
	spentMax := func(s, e int64) (float64, int64) {
		best := math.Inf(-1)
		frame := s
		scan := func(ss, se int64, pv float64) {
			sp := l.spent.Max(ss, se)
			if sp+pv > best {
				best = sp + pv
				frame = ss
				l.spent.Segments(ss, se, func(fs, _ int64, v float64) {
					if v == sp {
						frame = fs
					}
				})
			}
		}
		pend.Segments(s, e, scan)
		return best, frame
	}
	// Check: spent + reserved + demand <= epsilon everywhere.
	var worstFrame int64
	worst := math.Inf(-1)
	ok := true
	demand.Segments(minStart(charges, rhoFrames), maxEnd(charges, rhoFrames), func(s, e int64, d float64) {
		if d == 0 {
			return
		}
		// Within [s,e) the demand is constant; the binding constraint
		// is the max already-spent value there.
		sp, frame := spentMax(s, e)
		if sp+d > l.epsilon+1e-12 {
			ok = false
			if sp+d > worst {
				worst = sp + d
				worstFrame = frame
			}
		}
	})
	if !ok {
		return &ErrBudgetExhausted{
			Camera:    l.camera,
			Frame:     worstFrame,
			Remaining: l.epsilon - l.spent.Get(worstFrame) - pend.Get(worstFrame),
			Requested: demand.Get(worstFrame),
		}
	}
	return nil
}

// Spend subtracts each charge over its unexpanded interval. Callers
// must have passed Check with the same charges first.
func (l *Ledger) Spend(charges []Charge) {
	for _, c := range charges {
		l.spent.AddRange(c.Interval.Start, c.Interval.End, c.Eps)
	}
}

func minStart(charges []Charge, rho int64) int64 {
	m := int64(math.MaxInt64)
	for _, c := range charges {
		if s := c.Interval.Start - rho; s < m {
			m = s
		}
	}
	return m
}

func maxEnd(charges []Charge, rho int64) int64 {
	m := int64(math.MinInt64)
	for _, c := range charges {
		if e := c.Interval.End + rho; e > m {
			m = e
		}
	}
	return m
}

// DetectionProbability evaluates Eq. C.3: the maximum probability an
// adversary with false-positive tolerance alpha correctly detects a
// protected event, given the effective ε. This is the curve of Fig. 8.
func DetectionProbability(eps, alpha float64) float64 {
	if eps < 0 || alpha < 0 {
		return 0
	}
	a := math.Exp(eps) * alpha
	b := 1 - math.Exp(-eps)*(1-alpha)
	p := math.Min(a, b)
	return math.Min(p, 1)
}

// EffectiveEpsilon returns the privacy level actually afforded to an
// event that exceeds the (ρ, K) policy bound (§5.3, Appendix C): an
// event with K' segments of duration ρ' each is protected with
//
//	ε' = ε · (K'/K) · (max_chunks(ρ') / max_chunks(ρ))
//
// where max_chunks is Eq. 6.1 at the query's chunk size. ε' grows —
// privacy degrades gracefully — as the event exceeds the bound.
func EffectiveEpsilon(eps float64, policyRhoFrames int64, policyK int, actualRhoFrames int64, actualK int, chunkFrames int64) float64 {
	if chunkFrames <= 0 || policyK <= 0 {
		return math.Inf(1)
	}
	mc := func(rho int64) float64 {
		ceil := rho / chunkFrames
		if rho%chunkFrames != 0 {
			ceil++
		}
		return float64(1 + ceil)
	}
	return eps * (float64(actualK) / float64(policyK)) * (mc(actualRhoFrames) / mc(policyRhoFrames))
}
