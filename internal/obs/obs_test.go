package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the `le` semantics: a value equal
// to an upper bound lands in that bucket (Prometheus buckets are
// le-inclusive), a value just above it lands in the next, and values
// above every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2.5, 10})
	for _, v := range []float64{0, 1, 1.0000001, 2.5, 9.999, 10, 10.001, 1e9} {
		h.Observe(v)
	}
	want := []uint64{
		2, // le=1: 0, 1
		2, // le=2.5: 1.0000001, 2.5
		2, // le=10: 9.999, 10
		2, // +Inf: 10.001, 1e9
	}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count: got %d, want 8", h.Count())
	}
	wantSum := 0.0 + 1 + 1.0000001 + 2.5 + 9.999 + 10 + 10.001 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Errorf("sum: got %g, want %g", h.Sum(), wantSum)
	}
}

// TestHistogramUnsortedAndInfBounds ensures constructor normalization:
// bounds are sorted and a trailing +Inf is dropped (it is implicit).
func TestHistogramUnsortedAndInfBounds(t *testing.T) {
	h := newHistogram([]float64{10, math.Inf(1), 1})
	h.Observe(5)
	got := h.BucketCounts()
	if len(got) != 3 { // le=1, le=10, +Inf
		t.Fatalf("buckets: got %d, want 3", len(got))
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("counts: got %v, want [0 1 0]", got)
	}
}

// TestNilInstrumentsAreNoOps pins the disabled-observability contract:
// every instrument and registry method must be callable on nil.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.BucketCounts() != nil {
		t.Error("nil histogram recorded")
	}
	var cv *CounterVec
	cv.With("a").Inc()
	var hv *HistogramVec
	hv.With("a").Observe(1)
	var r *Registry
	r.Counter("x", "").Inc()
	r.CollectFunc("y", "", TypeGauge, nil, func(emit Emit) { emit(nil, 1) })
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Errorf("nil registry wrote %d bytes, err %v", n, err)
	}
	var s *Span
	s.Child("c").End()
	s.Set("k", 1)
	s.Add("k", 1)
	s.End()
	var tr *Trace
	tr.Finish()
	if b, err := tr.JSON(); b != nil || err != nil {
		t.Errorf("nil trace JSON: %v, %v", b, err)
	}
	var sl *SlowLog
	sl.Record(SlowEntry{})
	if err := sl.Sync(); err != nil {
		t.Errorf("nil slowlog sync: %v", err)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// instrument updates, vec lookups and scrapes interleaved — and relies
// on -race to catch unsynchronized access. Counts are verified exactly.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	hv := r.HistogramVec("lat_seconds", "latency", []float64{0.1, 1}, "stage")
	r.CollectFunc("depth", "queue depth", TypeGauge, nil, func(emit Emit) { emit(nil, 7) })

	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stage := []string{"split", "process", "noise"}[w%3]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				hv.With(stage).Observe(float64(i%3) / 2)
				if i%100 == 0 {
					var b strings.Builder
					if _, err := r.WriteTo(&b); err != nil {
						t.Errorf("scrape: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter: got %g, want %d", got, workers*perWorker)
	}
	total := uint64(0)
	for _, stage := range []string{"split", "process", "noise"} {
		total += hv.With(stage).Count()
	}
	if total != workers*perWorker {
		t.Errorf("histogram observations: got %d, want %d", total, workers*perWorker)
	}

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	fams, err := CheckExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, b.String())
	}
	if fams != 3 {
		t.Errorf("families: got %d, want 3", fams)
	}
}

// TestReRegistrationSharesFamily pins that two layers registering the
// same metric name get the same underlying instrument.
func TestReRegistrationSharesFamily(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("stage_total", "", "stage")
	b := r.CounterVec("stage_total", "", "stage")
	a.With("parse").Add(2)
	b.With("parse").Inc()
	if got := a.With("parse").Value(); got != 3 {
		t.Errorf("shared family: got %g, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("schema mismatch did not panic")
		}
	}()
	r.CollectFunc("stage_total", "", TypeGauge, []string{"stage"}, func(Emit) {}) // different type must panic
}

// TestExpositionFormat checks the rendered text against the validator
// and a few exact-format expectations (label escaping, +Inf bucket,
// cumulative counts).
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(2)
	r.CollectFunc("g", "a gauge", TypeGauge, []string{"camera"}, func(emit Emit) { emit([]string{`we"ird\cam`}, 1.5) })
	h := r.Histogram("h_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(99)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if _, err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE c_total counter",
		"c_total 2",
		`g{camera="we\"ird\\cam"} 1.5`,
		`h_seconds_bucket{le="0.5"} 1`,
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="+Inf"} 3`,
		"h_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCheckExpositionRejects feeds malformed expositions to the
// validator.
func TestCheckExpositionRejects(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE m bogus\nm 1\n",
		"# TYPE m counter\nm{x=unquoted} 1\n",
		"# TYPE m counter\nm not-a-number\n",
		"# TYPE 0bad counter\n",
		"# TYPE m counter\nm{x=\"unterminated} 1\n",
	}
	for _, in := range bad {
		if _, err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed exposition %q", in)
		}
	}
}
