package video

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"privid/internal/geom"
	"privid/internal/vtime"
)

// randomFake builds a random interval source and a brute-force
// per-frame visibility oracle.
func randomFake(seed int64, frames int64, n int) (*SparseIntervalSource, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	s := &SparseIntervalSource{IntervalSource: IntervalSource{
		Camera: "fake", W: 100, H: 100, FPS: 10,
		Start:  time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
		Frames: frames,
	}}
	visible := make([][]int, frames)
	for id := 0; id < n; id++ {
		enter := rng.Int63n(frames)
		exit := enter + 1 + rng.Int63n(40)
		if exit > frames {
			exit = frames
		}
		s.Objects = append(s.Objects, FakeObject{ID: id, Class: Person, Enter: enter, Exit: exit})
		for f := enter; f < exit; f++ {
			visible[f] = append(visible[f], id)
		}
	}
	s.Sort()
	return s, visible
}

// adversarialFake draws an object list built to break a frame index:
// Enter ties, zero-length and inverted spans, a stack of deep overlap,
// spans reaching outside [0, Frames) — and leaves it in draw order
// unless sorted is set.
func adversarialFake(seed int64, sorted bool) *SparseIntervalSource {
	rng := rand.New(rand.NewSource(seed))
	const frames = 300
	s := &SparseIntervalSource{IntervalSource: IntervalSource{Camera: "fake", FPS: 10, Frames: frames}}
	n := 1 + rng.Intn(80)
	for id := 0; id < n; id++ {
		enter := rng.Int63n(frames+40) - 20
		if id > 0 && rng.Intn(4) == 0 {
			enter = s.Objects[rng.Intn(id)].Enter // tie
		}
		o := FakeObject{ID: id, Class: Person, Enter: enter, Exit: enter + 1 + rng.Int63n(60)}
		switch rng.Intn(8) {
		case 0:
			o.Exit = o.Enter // zero-length
		case 1:
			o.Exit = o.Enter - 1 - rng.Int63n(30) // inverted
		case 2:
			o.Enter, o.Exit = 100, 100+200 // deep overlap, and by far the longest span
		}
		s.Objects = append(s.Objects, o)
	}
	if sorted {
		s.Sort()
	}
	return s
}

// TestIntervalSourceFrameMatchesOracle is the seeded differential of the
// snapshot index against a brute-force scan: same objects, in Objects
// order, on every frame inside and outside the stream — whether or not
// Sort was ever called (the parent's maxSpan scan bound was only set
// there, so an unsorted source returned wrong frames).
func TestIntervalSourceFrameMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		s := adversarialFake(seed, seed%2 == 0)
		for f := int64(-30); f < s.Frames+80; f++ {
			var want []int
			for _, o := range s.Objects {
				if o.Enter <= f && f < o.Exit {
					want = append(want, o.ID)
				}
			}
			fr := s.Frame(f)
			var got []int
			for _, o := range fr.Objects {
				got = append(got, o.EntityID)
			}
			if fr.Index != f || !slices.Equal(got, want) {
				t.Fatalf("seed %d frame %d: index %d objects %v, want %v", seed, f, fr.Index, got, want)
			}
		}
	}
}

// TestIntervalSourceFrameSharedSnapshots pins what makes the shared
// snapshots safe and free: concurrent first calls build the index once
// (run under -race), a warm Frame allocates nothing, and a consumer that
// appends to a frame's Objects cannot write into a neighbouring snapshot.
func TestIntervalSourceFrameSharedSnapshots(t *testing.T) {
	s := adversarialFake(3, false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := int64(0); f < s.Frames; f++ {
				s.Frame(f)
			}
		}()
	}
	wg.Wait()
	var f int64
	if allocs := testing.AllocsPerRun(1000, func() { s.Frame(f % s.Frames); f++ }); allocs != 0 {
		t.Errorf("warm Frame allocates %v times, want 0", allocs)
	}
	before := make([][]Observation, s.Frames)
	for f := range before {
		before[f] = slices.Clone(s.Frame(int64(f)).Objects)
	}
	for f := range before {
		_ = append(s.Frame(int64(f)).Objects, Observation{EntityID: -1})
	}
	for f := range before {
		if !slices.Equal(s.Frame(int64(f)).Objects, before[f]) {
			t.Fatalf("frame %d changed after a consumer's append", f)
		}
	}
}

// BenchmarkIntervalSource_Frame is the CI pin of the zero-allocation
// frame read (interval_frame_zero_alloc in BENCH_12.json).
func BenchmarkIntervalSource_Frame(b *testing.B) {
	s, _ := randomFake(7, 5000, 600)
	s.Frame(0)
	b.ReportAllocs()
	b.ResetTimer()
	var objs int
	for i := 0; i < b.N; i++ {
		objs += len(s.Frame(int64(i) % s.Frames).Objects)
	}
	sinkInt = objs
}

func TestSparseIntervalSourceActiveIntervals(t *testing.T) {
	const frames = 500
	s, visible := randomFake(11, frames, 20)
	ivs := s.ActiveIntervals(nil, vtime.Interval{Start: 0, End: frames})
	// Disjoint, sorted, and exactly covering the frames with objects.
	covered := map[int64]bool{}
	last := int64(-1)
	for _, iv := range ivs {
		if iv.Start <= last {
			t.Fatalf("intervals not sorted/disjoint: %v", ivs)
		}
		last = iv.End
		for f := iv.Start; f < iv.End; f++ {
			covered[f] = true
		}
	}
	for f := int64(0); f < frames; f++ {
		if (len(visible[f]) > 0) != covered[f] {
			t.Fatalf("frame %d: visible=%v covered=%v", f, len(visible[f]) > 0, covered[f])
		}
	}
}

// TestSparseIntervalSourceActiveIntervalsWindows is the seeded
// differential of ActiveIntervals against a per-frame reference over
// random sub-windows of Enter-sorted objects, ties, empty and inverted
// spans, spans reaching outside the stream and a long span entering far
// before any window included: the runs of frames some object covers,
// clipped to the window, and nothing else.
func TestSparseIntervalSourceActiveIntervalsWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 200; seed++ {
		s := adversarialFake(seed, false)
		// Only the longest span Sort records lets a binary search reach
		// back to this object.
		s.Objects = append(s.Objects, FakeObject{ID: len(s.Objects), Class: Person, Enter: -5000, Exit: rng.Int63n(s.Frames)})
		s.Sort()
		for w := 0; w < 20; w++ {
			start := rng.Int63n(s.Frames+60) - 30
			iv := vtime.Interval{Start: start, End: start + rng.Int63n(s.Frames/2)}
			var want []vtime.Interval
			for f := iv.Start; f < iv.End; f++ {
				covered := false
				for _, o := range s.Objects {
					covered = covered || (o.Enter <= f && f < o.Exit)
				}
				switch n := len(want); {
				case !covered:
				case n > 0 && want[n-1].End == f:
					want[n-1].End++
				default:
					want = append(want, vtime.Interval{Start: f, End: f + 1})
				}
			}
			if got := s.ActiveIntervals(nil, iv); !slices.Equal(got, want) {
				t.Fatalf("seed %d, window %v: ActiveIntervals = %v, want %v", seed, iv, got, want)
			}
		}
	}
}

// TestSparseIntervalSourceSkipsEmptyChunks pins the contract the sim
// fleet depends on: with an object-dependent executable, skipping
// never-active chunks is invisible — ActiveChunks enumerates exactly
// the chunks overlapping some object span.
func TestSparseIntervalSourceSkipsEmptyChunks(t *testing.T) {
	s := &SparseIntervalSource{IntervalSource: IntervalSource{
		Camera: "fake", W: 100, H: 100, FPS: 10,
		Start:  time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC),
		Frames: 1000,
		Objects: []FakeObject{
			{ID: 0, Enter: 50, Exit: 70},
			{ID: 1, Enter: 420, Exit: 430},
		},
	}}
	s.Sort()
	split := Split{
		Source:      s,
		Interval:    vtime.Interval{Start: 0, End: 1000},
		ChunkFrames: 100,
	}
	ords := split.ActiveChunks()
	if len(ords) != 2 || ords[0] != 0 || ords[1] != 4 {
		t.Fatalf("active chunk ordinals = %v, want [0 4]", ords)
	}
}

// The append forms honour the caller's buffers: ActiveIntervals appends
// after dst's elements without merging into them, and
// AppendActiveChunks appends after dst and reuses a dirty interval
// buffer — matching a fresh ActiveChunks, through a mask and a crop
// too, and allocating nothing once the buffers have grown.
func TestAppendActiveChunksReusesBuffers(t *testing.T) {
	s, _ := randomFake(5, 3000, 60)
	full := vtime.Interval{Start: 0, End: 3000}
	prior := vtime.Interval{Start: 0, End: 3000} // would absorb every span if merged into
	if got := s.ActiveIntervals([]vtime.Interval{prior}, full); got[0] != prior || !slices.Equal(got[1:], s.ActiveIntervals(nil, full)) {
		t.Fatalf("ActiveIntervals merged into or dropped the caller's elements: %v", got[:2])
	}
	for _, src := range []Source{s, Masked(s, rectOccluder{geom.Rect{X1: 50, Y1: 50}}), Cropped(s, geom.Rect{X1: 50, Y1: 50})} {
		split := Split{Source: src, Interval: vtime.NewInterval(7, 2900), ChunkFrames: 30, StrideFrames: 5}
		want := split.ActiveChunks()
		ivs := []vtime.Interval{{Start: 1, End: 2}, {Start: 9, End: 4}} // stale contents
		ords := []int64{-1}
		var got []int64
		allocs := testing.AllocsPerRun(20, func() {
			got = split.AppendActiveChunks(ords[:1], &ivs)
			ords = got
		})
		if got[0] != -1 || !slices.Equal(got[1:], want) || len(want) == 0 {
			t.Fatalf("AppendActiveChunks = %v, want [-1] + %v", got, want)
		}
		if allocs != 0 {
			t.Errorf("AppendActiveChunks with grown buffers allocates %v times", allocs)
		}
	}
}
