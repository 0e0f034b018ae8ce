package video

import (
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/vtime"
)

// testSource builds a tiny stream with two people at known times and
// positions.
func testSource() *IntervalSource {
	return &IntervalSource{
		Camera: "camA", W: 100, H: 100, FPS: 10,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC), Frames: 1000,
		Objects: []FakeObject{
			{ID: 0, Class: Person, Enter: 100, Exit: 200, Box: geom.RectAround(geom.Point{X: 25, Y: 25}, 10, 10)},
			{ID: 1, Class: Person, Enter: 150, Exit: 400, Box: geom.RectAround(geom.Point{X: 75, Y: 75}, 10, 10)},
		},
	}
}

type rectOccluder struct{ r geom.Rect }

func (o rectOccluder) Visible(box geom.Rect) bool {
	return 1-box.CoverFraction(o.r) >= 0.4
}

func TestMaskedSource(t *testing.T) {
	src := testSource()
	// Occlude the top-left quadrant: entity 0 (at 25,25) disappears.
	m := Masked(src, rectOccluder{geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 50}})
	objs := m.Frame(160).Objects
	if len(objs) != 1 || objs[0].EntityID != 1 {
		t.Fatalf("masked frame: %+v", objs)
	}
	// A nil occluder is a pass-through.
	if got := Masked(src, nil); got != src {
		t.Errorf("Masked(nil) should return the source")
	}
}

func TestCroppedSource(t *testing.T) {
	src := testSource()
	c := Cropped(src, geom.Rect{X0: 50, Y0: 50, X1: 100, Y1: 100})
	objs := c.Frame(160).Objects
	if len(objs) != 1 || objs[0].EntityID != 1 {
		t.Fatalf("cropped frame: %+v", objs)
	}
}

// staticSource serves one pre-built Objects slice for every frame, so
// tests and benchmarks can observe exactly what the decorators do with
// it (a source that built a fresh slice per frame would mask decorator
// copies and allocations).
type staticSource struct {
	info Info
	objs []Observation
}

func (s *staticSource) Info() Info          { return s.info }
func (s *staticSource) Frame(i int64) Frame { return Frame{Index: i, Objects: s.objs} }

// TestDecoratorPassthroughSharesSlice is the regression test for the
// per-frame decorator allocation: when nothing is filtered, the
// decorator must return the source's Objects slice itself, not a copy.
func TestDecoratorPassthroughSharesSlice(t *testing.T) {
	src := &staticSource{
		info: Info{Camera: "camA", W: 100, H: 100, FPS: 10, Frames: 1000},
		objs: []Observation{
			{EntityID: 0, Box: geom.Rect{X0: 20, Y0: 20, X1: 30, Y1: 30}},
			{EntityID: 1, Box: geom.Rect{X0: 70, Y0: 70, X1: 80, Y1: 80}},
		},
	}
	base := src.objs

	// A mask that hides nothing and a crop covering the full frame both
	// keep every object, so both must pass the slice through untouched.
	m := Masked(src, rectOccluder{geom.Rect{X0: -10, Y0: -10, X1: -5, Y1: -5}})
	if got := m.Frame(160).Objects; &got[0] != &base[0] || len(got) != len(base) {
		t.Errorf("masked passthrough copied the Objects slice")
	}
	c := Cropped(src, geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100})
	if got := c.Frame(160).Objects; &got[0] != &base[0] || len(got) != len(base) {
		t.Errorf("cropped passthrough copied the Objects slice")
	}

	// Stacked decorators that filter nothing still share the slice.
	mc := Cropped(m, geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100})
	if got := mc.Frame(160).Objects; &got[0] != &base[0] {
		t.Errorf("stacked passthrough copied the Objects slice")
	}

	// And a decorator that does filter must copy, never aliasing the
	// source slice (it is shared with other consumers).
	half := Cropped(src, geom.Rect{X0: 50, Y0: 50, X1: 100, Y1: 100})
	got := half.Frame(160).Objects
	if len(got) != 1 || got[0].EntityID != 1 {
		t.Fatalf("half crop: %+v", got)
	}
	if &got[0] == &base[0] || &got[0] == &base[1] {
		t.Errorf("filtered result aliases the source slice")
	}
	if len(base) != 2 {
		t.Errorf("filtering mutated the source slice")
	}
}

func TestFilterObjects(t *testing.T) {
	objs := []Observation{{EntityID: 0}, {EntityID: 1}, {EntityID: 2}, {EntityID: 3}}

	// Everything kept: same slice back.
	got := filterObjects(objs, func(*Observation) bool { return true })
	if &got[0] != &objs[0] || len(got) != 4 {
		t.Errorf("keep-all should return the input slice")
	}

	// Drop first, drop middle, drop last, drop everything.
	cases := []struct {
		keep func(*Observation) bool
		want []int
	}{
		{func(o *Observation) bool { return o.EntityID != 0 }, []int{1, 2, 3}},
		{func(o *Observation) bool { return o.EntityID != 2 }, []int{0, 1, 3}},
		{func(o *Observation) bool { return o.EntityID != 3 }, []int{0, 1, 2}},
		{func(*Observation) bool { return false }, nil},
	}
	for i, tc := range cases {
		got := filterObjects(objs, tc.keep)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: got %v, want ids %v", i, got, tc.want)
		}
		for j, id := range tc.want {
			if got[j].EntityID != id {
				t.Fatalf("case %d: got %v, want ids %v", i, got, tc.want)
			}
		}
		if len(got) > 0 && &got[0] == &objs[0] {
			t.Fatalf("case %d: filtered result must not alias the input", i)
		}
	}

	// Empty and nil inputs pass through.
	if got := filterObjects(nil, func(*Observation) bool { return false }); got != nil {
		t.Errorf("nil input: got %v", got)
	}
}

// benchSource returns a static 8-object frame: four objects on the
// left half of a 100×100 view, four on the right.
func benchSource() *staticSource {
	src := &staticSource{info: Info{Camera: "camA", W: 100, H: 100, FPS: 10, Frames: 1000}}
	for i := 0; i < 8; i++ {
		x := 20.0
		if i%2 == 0 {
			x = 70.0
		}
		y := 10.0 * float64(i+1)
		src.objs = append(src.objs, Observation{
			EntityID: i, Class: Person,
			Box: geom.Rect{X0: x, Y0: y, X1: x + 10, Y1: y + 8},
		})
	}
	return src
}

// BenchmarkMasked_Passthrough is the alloc-counting regression
// benchmark: a decorator stack that filters nothing must not allocate
// per frame (enforced at 0 allocs/op by the CI bench contract).
func BenchmarkMasked_Passthrough(b *testing.B) {
	src := benchSource()
	// Mask far outside the frame and a full-frame crop: nothing is ever
	// filtered, which is the common case for real deployments.
	m := Cropped(Masked(src, rectOccluder{geom.Rect{X0: -10, Y0: -10, X1: -5, Y1: -5}}),
		geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100})
	b.ReportAllocs()
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		kept += len(m.Frame(int64(i)).Objects)
	}
	sinkInt = kept
}

// BenchmarkMasked_Filtering measures the one-allocation path where the
// mask actually drops objects per frame.
func BenchmarkMasked_Filtering(b *testing.B) {
	src := benchSource()
	// Occlude the left half: the four objects parked at x=20 disappear.
	m := Masked(src, rectOccluder{geom.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100}})
	b.ReportAllocs()
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		kept += len(m.Frame(int64(i)).Objects)
	}
	sinkInt = kept
}

var sinkInt int

func TestSplitChunking(t *testing.T) {
	src := testSource()
	sp := Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100, StrideFrames: 0}
	if got := sp.NumChunks(); got != 10 {
		t.Fatalf("NumChunks=%d, want 10", got)
	}
	c0 := sp.ChunkAt(0)
	if c0.Interval != vtime.NewInterval(0, 100) || c0.Len() != 100 {
		t.Errorf("chunk 0 = %v", c0.Interval)
	}
	c9 := sp.ChunkAt(9)
	if c9.Interval != vtime.NewInterval(900, 1000) {
		t.Errorf("chunk 9 = %v", c9.Interval)
	}
	if c0.Camera != "camA" || c0.FPS != 10 {
		t.Errorf("chunk metadata wrong: %+v", c0)
	}
	// Chunk frame access is relative to the chunk.
	c1 := sp.ChunkAt(1)
	f := c1.Frame(60) // absolute frame 160
	if len(f.Objects) != 2 || f.Index != 160 {
		t.Errorf("chunk frame access wrong: idx=%d objs=%d", f.Index, len(f.Objects))
	}
	if got := c0.Seconds(); got != 10 {
		t.Errorf("chunk seconds=%v", got)
	}
}

func TestSplitWithStride(t *testing.T) {
	src := testSource()
	// chunk=100, stride=100: chunks start every 200 frames.
	sp := Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100, StrideFrames: 100}
	if got := sp.NumChunks(); got != 5 {
		t.Fatalf("NumChunks=%d, want 5", got)
	}
	if c := sp.ChunkAt(1); c.Interval != vtime.NewInterval(200, 300) {
		t.Errorf("chunk 1 = %v", c.Interval)
	}
	// Clipping: window not divisible by period.
	sp2 := Split{Source: src, Interval: vtime.NewInterval(0, 950), ChunkFrames: 100, StrideFrames: 0}
	if got := sp2.NumChunks(); got != 10 {
		t.Fatalf("NumChunks=%d, want 10", got)
	}
	if c := sp2.ChunkAt(9); c.Interval != vtime.NewInterval(900, 950) {
		t.Errorf("final clipped chunk = %v", c.Interval)
	}
}

type sparseSrc struct {
	*IntervalSource
	active []vtime.Interval
}

func (s *sparseSrc) ActiveIntervals(out []vtime.Interval, iv vtime.Interval) []vtime.Interval {
	for _, a := range s.active {
		if x := a.Intersect(iv); !x.Empty() {
			out = append(out, x)
		}
	}
	return out
}

func TestActiveChunksSparse(t *testing.T) {
	base := testSource()
	src := &sparseSrc{IntervalSource: base, active: []vtime.Interval{{Start: 100, End: 400}}}
	sp := Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100, StrideFrames: 0}
	got := sp.ActiveChunks()
	// Frames 100-399 → chunks 1, 2, 3.
	want := []int64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ActiveChunks=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveChunks=%v, want %v", got, want)
		}
	}
	// A dense source processes everything.
	dense := Split{Source: base, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100}
	if got := dense.ActiveChunks(); len(got) != 10 {
		t.Errorf("dense ActiveChunks len=%d, want 10", len(got))
	}
}

func TestActiveChunksBoundary(t *testing.T) {
	base := testSource()
	// Activity touching exactly the last frame of chunk 0.
	src := &sparseSrc{IntervalSource: base, active: []vtime.Interval{{Start: 99, End: 100}}}
	sp := Split{Source: src, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100, StrideFrames: 0}
	got := sp.ActiveChunks()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("boundary ActiveChunks=%v, want [0]", got)
	}
	// No activity at all.
	src2 := &sparseSrc{IntervalSource: base}
	sp2 := Split{Source: src2, Interval: vtime.NewInterval(0, 1000), ChunkFrames: 100}
	if got := sp2.ActiveChunks(); len(got) != 0 {
		t.Fatalf("empty ActiveChunks=%v", got)
	}
}
