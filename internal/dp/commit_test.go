package dp

import (
	"errors"
	"testing"

	"privid/internal/vtime"
)

// TestReserveCommitOrdering: admission is Reserve, the caller's
// durable commit, then Finalize. A failed commit Releases the
// reservation with nothing spent, and a denied Reserve never reaches
// the commit — the charge-before-release contract.
func TestReserveCommitOrdering(t *testing.T) {
	led := NewLedger("camA", 10)
	var committed [][]Charge
	durably := func(ch []Charge, commit func([]Charge) error) error {
		id, err := led.Reserve(ch, 0)
		if err != nil {
			return err
		}
		if err := commit(ch); err != nil {
			led.Release(id)
			return err
		}
		led.Finalize(id)
		return nil
	}
	record := func(ch []Charge) error {
		committed = append(committed, ch)
		return nil
	}
	ch := []Charge{{Interval: vtime.NewInterval(0, 100), Eps: 3}}
	if err := durably(ch, record); err != nil {
		t.Fatal(err)
	}
	if len(committed) != 1 {
		t.Fatalf("committed %d times, want 1", len(committed))
	}
	if got := led.Remaining(50); got != 7 {
		t.Errorf("remaining = %v, want 7", got)
	}

	// A failing commit spends nothing.
	failErr := errors.New("disk on fire")
	err := durably(ch, func([]Charge) error { return failErr })
	if !errors.Is(err, failErr) {
		t.Fatalf("admit with failing commit: %v", err)
	}
	if got := led.Remaining(50); got != 7 {
		t.Errorf("failed commit spent budget: remaining = %v, want 7", got)
	}

	// A denied admission never reaches the commit.
	big := []Charge{{Interval: vtime.NewInterval(0, 100), Eps: 100}}
	var ex *ErrBudgetExhausted
	err = durably(big, func([]Charge) error {
		t.Error("commit reached for a denied admission")
		return nil
	})
	if !errors.As(err, &ex) {
		t.Fatalf("want budget denial, got %v", err)
	}
	if len(committed) != 1 {
		t.Errorf("committed %d times, want 1", len(committed))
	}
}

// TestReserveFinalizeRelease: reservations block competing admissions
// and Remaining like spent budget; Release restores the ledger exactly
// and Finalize converts the reservation into spend.
func TestReserveFinalizeRelease(t *testing.T) {
	led := NewLedger("camA", 10)
	ch := []Charge{{Interval: vtime.NewInterval(0, 100), Eps: 6}}
	id, err := led.Reserve(ch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Remaining(50); got != 4 {
		t.Errorf("remaining with reservation = %v, want 4", got)
	}
	// A competing query demanding more than the unreserved budget is
	// denied even though nothing is spent yet.
	if _, err := led.Reserve([]Charge{{Interval: vtime.NewInterval(50, 60), Eps: 5}}, 0); err == nil {
		t.Fatal("reservation did not block competing admission")
	}
	// Release restores the ledger exactly.
	led.Release(id)
	if got := led.Remaining(50); got != 10 {
		t.Errorf("remaining after release = %v, want 10 exactly", got)
	}
	// Reserve + Finalize spends the charge.
	id, err = led.Reserve(ch, 0)
	if err != nil {
		t.Fatal(err)
	}
	led.Finalize(id)
	if got := led.Remaining(50); got != 4 {
		t.Errorf("remaining after finalize = %v, want 4", got)
	}
	// Finalize/Release of unknown handles are no-ops.
	led.Finalize(999)
	led.Release(id) // already finalized
	if got := led.Remaining(50); got != 4 {
		t.Errorf("unknown-handle ops changed the ledger: %v", got)
	}
}

// TestReserveRhoMargin: Reserve checks each charge over its interval
// widened by ρ.
func TestReserveRhoMargin(t *testing.T) {
	led := NewLedger("camA", 1)
	id, err := led.Reserve([]Charge{{Interval: vtime.NewInterval(0, 100), Eps: 1}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	led.Finalize(id)
	// A disjoint-but-within-rho interval must be denied: the expanded
	// intervals overlap.
	if _, err := led.Reserve([]Charge{{Interval: vtime.NewInterval(105, 120), Eps: 1}}, 10); err == nil {
		t.Fatal("rho margin ignored for reservations")
	}
	// Beyond the margin it fits.
	if _, err := led.Reserve([]Charge{{Interval: vtime.NewInterval(121, 140), Eps: 1}}, 10); err != nil {
		t.Fatalf("disjoint interval denied: %v", err)
	}
}

// TestRestoreSpent reproduces a recovered ledger bit-for-bit: restoring
// the segments of a spent function into a fresh ledger yields the same
// Remaining everywhere.
func TestRestoreSpent(t *testing.T) {
	orig := NewLedger("camA", 10)
	charges := [][]Charge{
		{{Interval: vtime.NewInterval(0, 100), Eps: 0.3}},
		{{Interval: vtime.NewInterval(50, 150), Eps: 0.7}},
		{{Interval: vtime.NewInterval(120, 130), Eps: 1.1}},
	}
	for _, ch := range charges {
		if err := admit(orig, ch, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Restore from the piecewise segments (what a snapshot persists).
	restored := NewLedger("camA", 10)
	type seg struct {
		s, e int64
		v    float64
	}
	var segs []seg
	prev := 0.0
	var start int64
	for f := int64(0); f <= 150; f++ {
		v := 10 - orig.Remaining(f)
		if v != prev {
			if prev != 0 {
				segs = append(segs, seg{start, f, prev})
			}
			start, prev = f, v
		}
	}
	for _, sg := range segs {
		restored.RestoreSpent(sg.s, sg.e, sg.v)
	}
	for f := int64(0); f < 150; f += 7 {
		if got, want := restored.Remaining(f), orig.Remaining(f); got != want {
			t.Fatalf("frame %d: restored remaining %v != original %v", f, got, want)
		}
	}
}
