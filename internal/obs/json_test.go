package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// jsonEdgeStrings hit every branch of AppendJSONString: HTML-escaped
// bytes, quote and backslash, the short control escapes and the \u00XX
// ones, DEL, U+2028/U+2029, invalid and valid multi-byte UTF-8.
var jsonEdgeStrings = []string{
	"", "plain", "<script>&amp;</script>", `quote" back\slash`,
	"ctl\x00\x01\x1f\b\f\n\r\t", "del\x7f",
	"sep" + string(rune(0x2028)) + "x" + string(rune(0x2029)),
	"bad\xff\xfe utf8 \xe2\x82", "héllo 世界 \U0001F600",
}

// jsonEdgeFloats straddle the 'f'/'e' switch at 1e-6 and 1e21 and the
// exponent clean-up, and include −0.
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1.0 / 3, 123456789.125,
	1e-6, 9.999999e-7, -1e-7, 1e-10, 5e-324, math.SmallestNonzeroFloat64,
	1e20, 9.99999e20, 1e21, -1e21, 1.5e300, math.MaxFloat64,
}

var jsonEdgeTimes = []time.Time{
	{},
	time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
	time.Date(2021, 3, 15, 6, 0, 0, 123456789, time.UTC),
	time.Date(2021, 3, 15, 6, 0, 0, 120000000, time.FixedZone("ist", 5*3600+30*60)),
	time.Date(1999, 12, 31, 23, 59, 59, 1000, time.FixedZone("pst", -8*3600)),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.Local),
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

// randomTrace builds a span tree of random shape whose names, times and
// attributes are drawn from the edge cases above.
func randomTrace(rng *rand.Rand) *Trace {
	clock := func() time.Time { return pick(rng, jsonEdgeTimes) }
	tr := NewTrace(pick(rng, jsonEdgeStrings), clock)
	var grow func(s *Span, depth int)
	grow = func(s *Span, depth int) {
		for range rng.IntN(5) {
			k := pick(rng, jsonEdgeStrings) + pick(rng, []string{"", "k", "a", "z"})
			switch rng.IntN(4) {
			case 0:
				s.Set(k, pick(rng, jsonEdgeStrings))
			case 1:
				s.Set(k, pick(rng, []int{0, -1, 255, 256, 1 << 40, math.MinInt64, math.MaxInt64}))
			case 2:
				s.Set(k, pick(rng, jsonEdgeFloats))
			default:
				s.Add(k, pick(rng, jsonEdgeFloats))
			}
		}
		for range rng.IntN(4 - depth) {
			var c *Span
			if rng.IntN(2) == 0 {
				c = s.Child(pick(rng, jsonEdgeStrings))
			} else {
				c = s.ChildSpanning(pick(rng, jsonEdgeStrings), pick(rng, jsonEdgeTimes), time.Duration(rng.Int64N(1e12)))
			}
			grow(c, depth+1)
			if rng.IntN(3) > 0 {
				c.End()
			}
		}
	}
	grow(tr.Root(), 0)
	if rng.IntN(2) == 0 {
		tr.Finish()
	}
	return tr
}

// TestTraceJSONMatchesEncodingJSON is the byte-identity oracle for the
// trace encoder: Trace.JSON must write exactly what json.Marshal writes
// for the same tree.
func TestTraceJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	for i := 0; i < 2000; i++ {
		tr := randomTrace(rng)
		got, err := tr.JSON()
		want, werr := json.Marshal(tr.Tree())
		if werr != nil || err != nil {
			// Add can overflow to ±Inf: both must refuse, alike.
			if werr == nil || err == nil || err.Error() != werr.Error() {
				t.Fatalf("trace %d: error %v, encoding/json: %v", i, err, werr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trace %d differs from encoding/json:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestTraceJSONNonFiniteError: a NaN or infinite attribute fails the
// rendering with encoding/json's error, wherever it sits in the tree.
func TestTraceJSONNonFiniteError(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := NewTrace("q", nil)
		tr.Root().Set("ok", 1.5)
		tr.Root().Child("stage").Child("leaf").Set("bad", v)
		tr.Finish()
		got, err := tr.JSON()
		_, want := json.Marshal(tr.Tree())
		if err == nil || want == nil || err.Error() != want.Error() || got != nil {
			t.Errorf("%v: got (%q, %v), encoding/json errs %v", v, got, err, want)
		}
	}
}

// TestAppendJSONScalars checks each scalar appender against
// encoding/json directly, appending after existing bytes.
func TestAppendJSONScalars(t *testing.T) {
	prefix := []byte("x")
	for _, s := range jsonEdgeStrings {
		want, _ := json.Marshal(s)
		if got := AppendJSONString(prefix, s); string(got) != "x"+string(want) {
			t.Errorf("string %q: got %s, want %s", s, got[1:], want)
		}
	}
	for _, f := range jsonEdgeFloats {
		want, _ := json.Marshal(f)
		if got, err := AppendJSONFloat(prefix, f); err != nil || string(got) != "x"+string(want) {
			t.Errorf("float %v: got %s (%v), want %s", f, got, err, want)
		}
	}
	for _, tm := range append(jsonEdgeTimes, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("bad", 24*3600))) {
		want, werr := json.Marshal(tm)
		got, err := AppendJSONTime(prefix, tm)
		if werr != nil {
			if err == nil || err.Error() != werr.Error() {
				t.Errorf("time %v: got (%s, %v), want error %v", tm, got, err, werr)
			}
			continue
		}
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("time %v: got %s (%v), want %s", tm, got, err, want)
		}
	}
}
