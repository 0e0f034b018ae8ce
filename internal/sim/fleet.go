// Package sim is the deterministic fleet simulator and chaos/soak
// harness (ROADMAP item 5). It generates a synthetic camera fleet
// whose every windowed aggregate is computable in closed form, drives
// a real engine+scheduler+HTTP stack (internal/harness) with a mixed
// concurrent workload — one-shot, multi-camera, standing and
// denial/repair flows — optionally under chaos (mid-load restarts,
// kill-style crashes with torn WAL tails, cache thrash, disk-cache
// corruption, hung executables), and then checks four invariant
// classes for every seed:
//
//  1. Ledger identity: per-frame remaining budget equals ε − acked
//     charges on clean runs, and never exceeds ε − acked under chaos
//     (charge-at-least-once), both in the live engine and in the WAL
//     read back after shutdown.
//  2. Ground truth: every release's pre-noise Raw value equals the
//     fleet's closed-form answer exactly, and the noised value lies
//     within 50 Laplace scales of it.
//  3. Stats self-consistency: /v1/stats agrees with the engine's own
//     counters at quiescence, and the counters satisfy their
//     structural identities.
//  4. Jobs: no terminal job changes its result across restarts, none
//     is lost except across a crash, and no standing-query bucket is
//     ever double-released.
//
// Everything derives from one seed: same seed, same fleet, same
// workload plan, same chaos schedule, same ground truths.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privid/internal/sandbox"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// streamStart anchors every sim camera (the repo's test convention:
// the paper's 6:00 am capture window).
var streamStart = scene.DefaultStart

// FleetConfig parameterizes the synthetic fleet.
type FleetConfig struct {
	// Cameras is the fleet size (1000+ in soak mode, dozens under
	// -short).
	Cameras int
	// Seed derives every camera's event process.
	Seed int64
	// Minutes is each camera's stream length.
	Minutes int
	// FPS is the synthetic frame rate (low: visibility, not pixels,
	// is the behavioral surface). 0 uses 2.
	FPS int
	// Epsilon is each camera's per-frame privacy budget. 0 uses 10.
	Epsilon float64
	// MaxConcurrent bounds simultaneously-visible objects per camera
	// (arrivals beyond it are dropped deterministically), which in
	// turn bounds rows-per-chunk. 0 uses 8.
	MaxConcurrent int
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.FPS == 0 {
		c.FPS = 2
	}
	if c.Epsilon == 0 {
		c.Epsilon = 10
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	return c
}

// FleetCamera is one synthetic camera: its interval-event list and the
// sparse fake source serving it.
type FleetCamera struct {
	Name   string
	Source *video.SparseIntervalSource
	// Events is the ground-truth event list (same backing slice as
	// Source.Objects, Enter-sorted).
	Events []video.FakeObject
	// RatePerMin is the camera's base arrival rate (diagnostics).
	RatePerMin float64
}

// Fleet is a generated camera fleet plus its ground-truth oracle.
type Fleet struct {
	Cfg    FleetConfig
	Start  time.Time
	Frames int64 // per camera
	Cams   []*FleetCamera
}

// mix64 is SplitMix64's finalizer — decorrelates per-camera seeds so
// camera i of seed s shares nothing with camera i of seed s+1.
func mix64(x int64) int64 {
	z := uint64(x) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// poisson draws k ~ Poisson(lambda) (Knuth's product method; fine for
// the small rates simulated here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // guard against pathological lambda
			return k
		}
	}
}

// CamName returns the i-th fleet camera's name.
func CamName(i int) string { return fmt.Sprintf("cam%03d", i) }

// NewFleet deterministically generates the fleet: per camera a seeded
// event process — Poisson arrivals modulated by a diurnal rate curve,
// lognormal dwell times, a concurrency cap — materialized as an
// explicit Enter/Exit event list. The event list IS the ground truth:
// every windowed aggregate below is a closed-form function of it.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		Cfg:    cfg,
		Start:  streamStart,
		Frames: int64(cfg.Minutes) * 60 * int64(cfg.FPS),
	}
	fpm := int64(60 * cfg.FPS) // frames per minute
	for i := 0; i < cfg.Cameras; i++ {
		rng := rand.New(rand.NewSource(mix64(cfg.Seed ^ mix64(int64(i)))))
		cam := &FleetCamera{
			Name:       CamName(i),
			RatePerMin: 0.8 + rng.Float64()*2.2,
		}
		// Diurnal curve: a phase-shifted cosine bump, per camera.
		phase := rng.Float64() * 24
		var diurnal [24]float64
		for h := range diurnal {
			diurnal[h] = 0.3 + 0.7*(0.5+0.5*math.Cos(2*math.Pi*(float64(h)-phase)/24))
		}
		// Dwell distribution: lognormal seconds, per-camera median.
		mu := math.Log(5 + rng.Float64()*12)
		const sigma = 0.5

		// occupancy[f] = objects visible on frame f (concurrency cap).
		occupancy := make([]int, f.Frames)
		id := 0
		for m := 0; m < cfg.Minutes; m++ {
			hour := (streamStart.Hour() + m/60) % 24
			lambda := cam.RatePerMin * diurnal[hour]
			arrivals := poisson(rng, lambda)
			for a := 0; a < arrivals; a++ {
				enter := int64(m)*fpm + rng.Int63n(fpm)
				durSec := math.Exp(rng.NormFloat64()*sigma + mu)
				if durSec < 2 {
					durSec = 2
				}
				if durSec > 45 {
					durSec = 45
				}
				exit := enter + int64(durSec*float64(cfg.FPS))
				if exit > f.Frames {
					exit = f.Frames
				}
				if exit <= enter {
					continue
				}
				// Concurrency cap: drop arrivals that would exceed it
				// anywhere in their span (deterministic: the rng draws
				// above are consumed either way).
				ok := true
				for fr := enter; fr < exit; fr++ {
					if occupancy[fr]+1 > cfg.MaxConcurrent {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for fr := enter; fr < exit; fr++ {
					occupancy[fr]++
				}
				cam.Events = append(cam.Events, video.FakeObject{
					ID:    id,
					Class: video.Person,
					Enter: enter,
					Exit:  exit,
				})
				id++
			}
		}
		src := &video.SparseIntervalSource{IntervalSource: video.IntervalSource{
			Camera: cam.Name,
			W:      1000, H: 500,
			FPS:     vtime.FrameRate(cfg.FPS),
			Start:   streamStart,
			Frames:  f.Frames,
			Objects: cam.Events,
		}}
		src.Sort()
		cam.Source = src
		cam.Events = src.Objects // Enter-sorted view
		f.Cams = append(f.Cams, cam)
	}
	return f
}

// --- ground-truth oracle -------------------------------------------

// chunkGrid maps a [beginMin, endMin) minute window onto the chunk
// grid: begin frame, chunk length in frames, and chunk count.
func (f *Fleet) chunkGrid(beginMin, endMin, chunkSec int) (beginF, chunkF, n int64) {
	fps := int64(f.Cfg.FPS)
	beginF = int64(beginMin) * 60 * fps
	endF := int64(endMin) * 60 * fps
	if endF > f.Frames {
		endF = f.Frames
	}
	chunkF = int64(chunkSec) * fps
	span := endF - beginF
	if span <= 0 || chunkF <= 0 {
		return beginF, chunkF, 0
	}
	return beginF, chunkF, (span + chunkF - 1) / chunkF
}

// ObjChunks is the closed-form ground truth for COUNT(*) over the
// simobj table: the number of (object, chunk) incidences — each event
// contributes one row to every chunk its [Enter, Exit) span overlaps —
// for camera index ci over [beginMin, endMin) in chunkSec chunks.
func (f *Fleet) ObjChunks(ci int, beginMin, endMin, chunkSec int) float64 {
	beginF, chunkF, n := f.chunkGrid(beginMin, endMin, chunkSec)
	if n == 0 {
		return 0
	}
	total := int64(0)
	for _, ev := range f.Cams[ci].Events {
		s, e := ev.Enter, ev.Exit
		if s < beginF {
			s = beginF
		}
		if limit := beginF + n*chunkF; e > limit {
			e = limit
		}
		if e <= s {
			continue
		}
		first := (s - beginF) / chunkF
		last := (e - 1 - beginF) / chunkF
		total += last - first + 1
	}
	return float64(total)
}

// ObjChunksByBucket buckets ObjChunks by bin(chunk, binSec): chunk
// rows land in the bucket of their chunk's start instant (floored to
// binSec in unix seconds, exactly like the bin() builtin on the
// trusted chunk column). The key set mirrors the engine's
// enumerateBuckets: every epoch-aligned bucket overlapping the window
// is present — zero-valued when no chunk row lands in it — because the
// release set is data-independent by design (§6.2: which buckets exist
// must not leak what the camera saw).
func (f *Fleet) ObjChunksByBucket(ci int, beginMin, endMin, chunkSec, binSec int) map[int64]float64 {
	out := map[int64]float64{}
	beginUnix := f.Start.Unix() + int64(beginMin)*60
	endUnix := f.Start.Unix() + int64(endMin)*60
	for b := (beginUnix / int64(binSec)) * int64(binSec); b < endUnix; b += int64(binSec) {
		out[b] = 0
	}
	beginF, chunkF, n := f.chunkGrid(beginMin, endMin, chunkSec)
	if n == 0 {
		return out
	}
	fps := int64(f.Cfg.FPS)
	for _, ev := range f.Cams[ci].Events {
		s, e := ev.Enter, ev.Exit
		if s < beginF {
			s = beginF
		}
		if limit := beginF + n*chunkF; e > limit {
			e = limit
		}
		if e <= s {
			continue
		}
		first := (s - beginF) / chunkF
		last := (e - 1 - beginF) / chunkF
		for c := first; c <= last; c++ {
			chunkStartUnix := f.Start.Unix() + (beginF+c*chunkF)/fps
			bucket := (chunkStartUnix / int64(binSec)) * int64(binSec)
			out[bucket]++
		}
	}
	return out
}

// MaxRowsPerChunk returns the largest number of distinct objects any
// aligned chunkSec chunk holds across the fleet — the PRODUCING cap
// every sim query uses, so row truncation can never bend a ground
// truth. Windows in sim queries are minute-aligned, so chunk
// boundaries always land on the absolute chunkSec grid.
func (f *Fleet) MaxRowsPerChunk(chunkSec int) int {
	chunkF := int64(chunkSec * f.Cfg.FPS)
	max := 1
	for _, cam := range f.Cams {
		counts := map[int64]int{}
		for _, ev := range cam.Events {
			first := ev.Enter / chunkF
			last := (ev.Exit - 1) / chunkF
			for c := first; c <= last; c++ {
				counts[c]++
				if counts[c] > max {
					max = counts[c]
				}
			}
		}
	}
	return max
}

// ObjExecutable is the fleet's ground-truth-checkable analyst
// executable: one row per distinct object visible in the chunk (its
// ID as the value). It reads frames through the real Source path, so
// masking, chunking and caching are all exercised; its output is
// empty on empty chunks, which keeps sparse-skip invisible.
func ObjExecutable() sandbox.ProcessFunc {
	return func(c *video.Chunk) []table.Row {
		var rows []table.Row
		seen := map[int]bool{}
		for k := int64(0); k < c.Len(); k++ {
			for _, o := range c.Frame(k).Objects {
				if !seen[o.EntityID] {
					seen[o.EntityID] = true
					rows = append(rows, table.Row{table.N(float64(o.EntityID))})
				}
			}
		}
		return rows
	}
}
