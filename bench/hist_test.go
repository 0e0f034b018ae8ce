package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistAgainstExactSort checks every reported quantile against an
// exact sort of 100k log-normal samples (latency-shaped: six decades),
// recorded into two histograms that are then merged.
func TestHistAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100_000
	samples := make([]int64, n)
	a, b := NewHist(), NewHist()
	for i := range samples {
		v := int64(math.Exp(rng.NormFloat64()*2.5 + 13)) // median ≈ 0.44 ms in ns
		samples[i] = v
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(b)
	if a.Count() != n {
		t.Fatalf("count %d, want %d", a.Count(), n)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * n))
		want := samples[rank-1]
		got := a.Quantile(q)
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Errorf("q=%g: got %d, exact %d, relative error %.4f > 1%%", q, got, want, rel)
		}
	}
}

func TestHistSmallValuesExact(t *testing.T) {
	h := NewHist()
	for v := int64(0); v < 300; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.1); got != 29 {
		t.Errorf("q=0.1 over 0..299: got %d, want 29", got)
	}
	if got := NewHist().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram: got %d, want 0", got)
	}
}
