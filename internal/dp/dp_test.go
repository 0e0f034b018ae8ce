package dp

import (
	"errors"
	"math"
	"testing"

	"privid/internal/vtime"
)

func TestLaplaceMoments(t *testing.T) {
	n := NewNoise(42)
	const scale = 3.0
	const samples = 200000
	var sum, sumAbs float64
	for i := 0; i < samples; i++ {
		x := n.Laplace(scale)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / samples
	meanAbs := sumAbs / samples
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean=%v, want ~0", mean)
	}
	// E|X| = scale for Laplace.
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("E|X|=%v, want %v", meanAbs, scale)
	}
}

func TestLaplaceDeterministic(t *testing.T) {
	a, b := NewNoise(7), NewNoise(7)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	if NewNoise(1).Laplace(0) != 0 {
		t.Errorf("zero scale must give zero noise")
	}
}

func TestLaplaceScale(t *testing.T) {
	if got := LaplaceScale(70, 1); got != 70 {
		t.Errorf("scale=%v", got)
	}
	if got := LaplaceScale(70, 0.5); got != 140 {
		t.Errorf("scale=%v", got)
	}
	if got := LaplaceScale(70, 0); !math.IsInf(got, 1) {
		t.Errorf("zero epsilon scale=%v, want +inf", got)
	}
}

// admit is the engine's admission path on one ledger, with no durable
// store between Reserve and Finalize.
func admit(l *Ledger, charges []Charge, rhoFrames int64) error {
	id, err := l.Reserve(charges, rhoFrames)
	if err == nil {
		l.Finalize(id)
	}
	return err
}

func TestLedgerBasicAdmit(t *testing.T) {
	l := NewLedger("camA", 1.0)
	iv := vtime.NewInterval(1000, 2000)
	if err := admit(l, []Charge{{Interval: iv, Eps: 0.4}}, 100); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if got := l.Remaining(1500); got != 0.6 {
		t.Errorf("remaining=%v, want 0.6", got)
	}
	// The margin is NOT charged.
	if got := l.Remaining(950); got != 1.0 {
		t.Errorf("margin remaining=%v, want 1.0", got)
	}
	if err := admit(l, []Charge{{Interval: iv, Eps: 0.4}}, 100); err != nil {
		t.Fatalf("second admit: %v", err)
	}
	// Third 0.4 exceeds 1.0.
	err := admit(l, []Charge{{Interval: iv, Eps: 0.4}}, 100)
	var ex *ErrBudgetExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if ex.Camera != "camA" {
		t.Errorf("error camera=%q", ex.Camera)
	}
	// Denied queries must not consume anything.
	if got := l.Remaining(1500); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("after denial remaining=%v, want 0.2", got)
	}
}

func TestLedgerRhoMargin(t *testing.T) {
	// Two queries on adjacent intervals: the rho margin must make the
	// second query check frames of the first query's interval.
	l := NewLedger("camA", 1.0)
	if err := admit(l, []Charge{{Interval: vtime.NewInterval(0, 1000), Eps: 0.8}}, 100); err != nil {
		t.Fatal(err)
	}
	// [1000, 2000) is disjoint, but its expansion [900, 2100) overlaps
	// the charged [0, 1000) where only 0.2 remains.
	if err := admit(l, []Charge{{Interval: vtime.NewInterval(1000, 2000), Eps: 0.5}}, 100); err == nil {
		t.Fatalf("margin check failed to deny")
	}
	// Far enough away (expansion clears the first interval) it passes.
	if err := admit(l, []Charge{{Interval: vtime.NewInterval(1100, 2000), Eps: 0.5}}, 100); err != nil {
		t.Fatalf("disjoint-with-margin admit: %v", err)
	}
}

func TestLedgerOverlappingChargesSummed(t *testing.T) {
	// A single query whose releases overlap must count their sum in
	// the admission check.
	l := NewLedger("camA", 1.0)
	iv := vtime.NewInterval(0, 1000)
	err := admit(l, []Charge{
		{Interval: iv, Eps: 0.6},
		{Interval: iv, Eps: 0.6},
	}, 10)
	if err == nil {
		t.Fatalf("overlapping charges admitted beyond budget")
	}
	// Disjoint per-bucket charges of a standing query are fine.
	err = admit(l, []Charge{
		{Interval: vtime.NewInterval(0, 500), Eps: 0.6},
		{Interval: vtime.NewInterval(1500, 2000), Eps: 0.6},
	}, 10)
	if err != nil {
		t.Fatalf("disjoint charges denied: %v", err)
	}
	// But adjacent buckets within rho of each other interact: the
	// margin overlap must deny a follow-up that would exceed budget.
	if err := admit(l, []Charge{{Interval: vtime.NewInterval(500, 600), Eps: 0.6}}, 10); err == nil {
		t.Fatalf("charge within margin of a 0.6-spent region admitted")
	}
}

func TestLedgerManyQueriesMemory(t *testing.T) {
	l := NewLedger("camA", 100)
	for i := int64(0); i < 1000; i++ {
		if err := admit(l, []Charge{{Interval: vtime.NewInterval(i*100, i*100+100), Eps: 0.05}}, 10); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if got := l.Remaining(50); got != 99.95 {
		t.Errorf("remaining=%v", got)
	}
}

func TestDetectionProbability(t *testing.T) {
	// At eps=0 the adversary can do no better than alpha.
	if got := DetectionProbability(0, 0.01); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("P(eps=0)=%v, want alpha", got)
	}
	// Monotone in eps.
	prev := 0.0
	for _, eps := range []float64{0.1, 0.5, 1, 2, 4, 8} {
		p := DetectionProbability(eps, 0.01)
		if p < prev {
			t.Errorf("P not monotone at eps=%v: %v < %v", eps, p, prev)
		}
		prev = p
	}
	// Saturates at 1.
	if got := DetectionProbability(100, 0.2); got != 1 {
		t.Errorf("P(eps=100)=%v, want 1", got)
	}
	// Bounded by both branches of Eq. C.3.
	for _, eps := range []float64{0.5, 1, 2} {
		for _, alpha := range []float64{0.001, 0.01, 0.1, 0.2} {
			p := DetectionProbability(eps, alpha)
			if p > math.Exp(eps)*alpha+1e-12 {
				t.Errorf("P exceeds e^eps*alpha at (%v,%v)", eps, alpha)
			}
			if p > 1-math.Exp(-eps)*(1-alpha)+1e-12 {
				t.Errorf("P exceeds second bound at (%v,%v)", eps, alpha)
			}
		}
	}
}

func TestEffectiveEpsilon(t *testing.T) {
	// Policy rho=300 frames, K=2, chunk=50 frames:
	// max_chunks(300) = 1+6 = 7.
	base := EffectiveEpsilon(1.0, 300, 2, 300, 2, 50)
	if math.Abs(base-1.0) > 1e-12 {
		t.Errorf("at-bound eps=%v, want 1", base)
	}
	// Doubling K doubles eps (the (rho, 2K) -> 2eps relation of §5.3).
	if got := EffectiveEpsilon(1.0, 300, 2, 300, 4, 50); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("2K eps=%v, want 2", got)
	}
	// Halving K halves eps (stronger privacy).
	if got := EffectiveEpsilon(1.0, 300, 2, 300, 1, 50); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("K/2 eps=%v, want 0.5", got)
	}
	// Longer rho weakens privacy monotonically.
	prev := 0.0
	for _, rho := range []int64{100, 300, 600, 1200} {
		e := EffectiveEpsilon(1.0, 300, 2, rho, 2, 50)
		if e < prev {
			t.Errorf("eps not monotone in rho")
		}
		prev = e
	}
}
