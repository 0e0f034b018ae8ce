package main

import "testing"

// A max_allocs pin holds both ways: a count above it by more than the
// tolerance is a regression, and a count below it by more than the
// tolerance leaves the pin loose enough to hide one.
func TestMaxAllocsBounds(t *testing.T) {
	c := check{Name: "warm", Kind: "max_allocs", Benchmark: "BenchmarkWarm", Recorded: 97}
	for _, tc := range []struct {
		allocs float64
		ok     bool
	}{
		{97, true},
		{106, true},
		{88, true},
		{107.5, false},
		{87, false},
		{59, false},
	} {
		results := map[string]*measurement{"BenchmarkWarm": {allocsPerOp: tc.allocs, hasAllocs: true}}
		ok, detail, err := evaluate(c, 0.1, results)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%v allocs/op against a pin of 97±10%%: ok = %v, want %v (%s)", tc.allocs, ok, tc.ok, detail)
		}
	}
	// A zero pin has no room below it.
	zero := check{Name: "zero", Kind: "max_allocs", Benchmark: "BenchmarkWarm", Recorded: 0}
	if ok, detail, _ := evaluate(zero, 0.2, map[string]*measurement{"BenchmarkWarm": {hasAllocs: true}}); !ok {
		t.Errorf("0 allocs/op against a zero pin failed: %s", detail)
	}
}
