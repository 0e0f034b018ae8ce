package dp

import (
	"math"

	"privid/internal/vtime"
)

// Demand is one camera's share of a cross-camera admission: the
// charges a query places on that camera's ledger, with the camera's
// own ρ margin (frame rates differ per camera, so ρ in frames does
// too).
type Demand struct {
	Ledger    *Ledger
	Charges   []Charge
	RhoFrames int64
}

// MultiReserve holds one reservation per ledger of a cross-camera
// admission. It is the two-phase-commit handle for Algorithm 1
// generalized to N cameras: ReserveAll admits on every ledger or none,
// the caller persists the charges durably, then Finalize moves every
// reservation into its spent ledger (or Release drops them all,
// restoring each ledger bit-for-bit).
//
// Like Ledger itself, MultiReserve is not safe for concurrent use; the
// engine serializes admission.
type MultiReserve struct {
	held []heldReservation
}

type heldReservation struct {
	ledger *Ledger
	id     int64
}

// ReserveAll performs all-or-nothing admission across every demand's
// ledger: each ledger is admission-checked (against spent budget plus
// outstanding reservations) and holds its charges as a reservation. If
// any ledger denies, every reservation already held is released —
// leaving all ledgers exactly as found — and the denial error
// (typically *ErrBudgetExhausted naming the denying camera and frame)
// is returned with a nil handle. One camera denying therefore charges
// no camera anything.
func ReserveAll(demands []Demand) (*MultiReserve, error) {
	m := &MultiReserve{held: make([]heldReservation, 0, len(demands))}
	for _, d := range demands {
		id, err := d.Ledger.Reserve(d.Charges, d.RhoFrames)
		if err != nil {
			m.Release()
			return nil, err
		}
		m.held = append(m.held, heldReservation{ledger: d.Ledger, id: id})
	}
	return m, nil
}

// Finalize moves every held reservation into its spent ledger. Call
// only after the charges are durably persisted. Safe to call once.
func (m *MultiReserve) Finalize() {
	for _, h := range m.held {
		h.ledger.Finalize(h.id)
	}
	m.held = nil
}

// Release drops every held reservation without spending, restoring
// each ledger exactly (no floating-point residue). Safe to call on a
// partially built or already finalized handle.
func (m *MultiReserve) Release() {
	for _, h := range m.held {
		h.ledger.Release(h.id)
	}
	m.held = nil
}

// MinRemaining returns the worst-case unspent budget over every frame
// the ledger has ever charged or reserved — the single number an
// operator dashboard should watch per camera. A ledger with no charges
// reports the full per-frame budget.
func (l *Ledger) MinRemaining() float64 {
	has := l.spent.Breakpoints() > 0
	lo, hi := l.spent.Bounds()
	for _, res := range l.reserved {
		for _, c := range res.charges {
			if c.Interval.Empty() {
				continue
			}
			if !has || c.Interval.Start < lo {
				lo = c.Interval.Start
			}
			if !has || c.Interval.End > hi {
				hi = c.Interval.End
			}
			has = true
		}
	}
	if !has {
		return l.epsilon
	}
	// hi+1 so the last breakpoint frame itself is covered; the extra
	// frame beyond any charge carries zero spend and cannot lower the
	// maximum.
	return l.RemainingOver(vtime.NewInterval(lo, hi+1))
}

// RemainingOver returns the minimum unspent budget across every frame
// of an interval, counting outstanding reservations as spent — the
// number a per-camera budget report should show for a query's charged
// window.
func (l *Ledger) RemainingOver(iv vtime.Interval) float64 {
	if iv.Empty() {
		return l.epsilon
	}
	// Reservations overlay the spent map; fold them in per segment so
	// the result is the maximum of the sum, not the sum of maxima.
	worst := math.Inf(-1)
	l.pending().Segments(iv.Start, iv.End, func(s, e int64, pv float64) {
		worst = max(worst, l.spent.Max(s, e)+pv)
	})
	return l.epsilon - worst
}
