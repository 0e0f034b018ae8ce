package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"privid/internal/sim"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Every workload queries sim fleet cameras at 2 frames/s in 30 s chunks
// through the simobj executable.
const (
	fleetFPS     = 2
	chunkSec     = 30
	chunksPerMin = 60 / chunkSec
	chunkFrames  = chunkSec * fleetFPS
	framesPerMin = 60 * fleetFPS
	// cameraEps is so large, and queryEps so small, that no op of any
	// run can be denied for budget.
	cameraEps = 1e9
	queryEps  = 0.001
	// binSec is the GROUP BY bucket of the grouped statement.
	binSec = 3600
	// avgClamp is the upper range bound of the AVG statement.
	avgClamp = 1000
)

// stmtKind is the SELECT an op ends with.
type stmtKind int

const (
	stmtCount   stmtKind = iota // COUNT(*): pushdown, partial-state tier
	stmtGrouped                 // COUNT(*) per hour bucket: grouped pushdown
	stmtAvg                     // AVG(range(id,…)): declines pushdown, materialised path
)

// workload is one traffic mix and the deployment it runs against. Only
// the fields below differ from the shipped defaults of core.Options and
// server.SchedulerOptions.
type workload struct {
	name string
	why  string

	cams    int // fleet size
	minutes int // stream length per camera
	open    bool
	durable bool  // WAL under a state dir (else NullStore)
	ram     int64 // core.Options.ChunkCacheBytes; 0 keeps the 64 MiB default
	disk    bool  // core.Options.DiskCacheDir set

	camsPerOp int
	// Ops are sized in active chunks — the unit of engine work (a chunk
	// the sparse source proves empty is skipped) — so that an op costs
	// the same whichever camera and hour the seed picks: the window is
	// extended minute by minute until it holds target active chunks.
	// target 0 means a fixed windowMin-minute window.
	target    int
	windowMin int
	// hot is the number of distinct windows ops draw from; 0 draws a
	// fresh window for every op.
	hot   int
	kinds []stmtKind
	// warmOps closed-loop ops run untimed after every hot window has
	// been queried once with every statement kind; before them, prefill
	// ops run on the engine directly (see stack.prefill).
	warmOps int
	prefill int
}

var workloads = []workload{
	{
		name: "durable_small",
		why:  "tiny cached queries with the WAL on: HTTP+JSON, parse, scheduler hand-off, polling and store commits do the work; sandbox and video do none",
		cams: 16, minutes: 240, durable: true,
		camsPerOp: 1, windowMin: 10, hot: 32, kinds: []stmtKind{stmtCount}, warmOps: 1200, prefill: 10000,
	},
	{
		name: "warm_wide",
		why:  "wide windows resident in the RAM cache, three statement shapes: cache reads, rel merge/fold and table dominate; sandbox and store are bypassed",
		cams: 8, minutes: 1440,
		camsPerOp: 1, target: 360, hot: 16, kinds: []stmtKind{stmtCount, stmtGrouped, stmtAvg}, warmOps: 300,
	},
	{
		name: "cold_scan",
		why:  "working set far larger than a 1 MiB cache: video reads, sandbox execution, table ingest and cache put+evict do the work; the cache is written, almost never read",
		cams: 64, minutes: 1440, ram: 1 << 20,
		camsPerOp: 1, target: 60, kinds: []stmtKind{stmtCount}, warmOps: 600,
	},
	{
		name: "disk_fleet",
		why:  "four-camera queries served from the disk cache tier through a 1 MiB RAM tier: disk reads, promotion and eviction on every op, shard fan-out and multi-ledger admission",
		cams: 64, minutes: 1440, ram: 1 << 20, disk: true,
		camsPerOp: 4, target: 240, hot: 128, kinds: []stmtKind{stmtCount}, warmOps: 300,
	},
	{
		name: "burst_open",
		why:  "cold_scan's stack under an open loop of 11 simultaneous submissions every 70 ms: the only workload where scheduler queue wait is visible",
		cams: 64, minutes: 1440, ram: 1 << 20, open: true,
		camsPerOp: 1, target: 60, kinds: []stmtKind{stmtCount}, warmOps: 600,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Open-loop schedule: every burstEvery a burst of burstSize submissions,
// each from an analyst of its own, all due at the burst instant (157
// ops/s). The burst drains through two workers, so latency inside a burst
// climbs in steps, and a quantile that falls on a step edge flips between
// two levels from run to run. With 11 ops per burst the median is the 6th
// op, inside the third step, and p95 is the 11th and last op — the time to
// drain a burst; with 16 both sat on an edge (p95 then moved 29% between
// quartiles of ten runs).
const (
	burstEvery = 70 * time.Millisecond
	burstSize  = 11
)

// wantRel is the expected pre-noise value of one release.
type wantRel struct {
	bucket int64 // bin(chunk) bucket start in unix seconds; grouped only
	raw    float64
}

// opSpec is one generated query and its ground truth.
type opSpec struct {
	cams       []int
	begin, end int // window in minutes from stream start
	kind       stmtKind
	text       string
	want       []wantRel
}

// fleetIndex is the generated fleet plus what the generator needs to
// size windows: per camera, a prefix count of active chunks on the
// absolute 30 s grid. Windows are minute-aligned, so every window's
// chunks lie on that grid.
type fleetIndex struct {
	f       *sim.Fleet
	maxRows int
	active  [][]int32
}

func newFleetIndex(w workload, seed int64) *fleetIndex {
	f := sim.NewFleet(sim.FleetConfig{Cameras: w.cams, Seed: seed, Minutes: w.minutes, FPS: fleetFPS, Epsilon: cameraEps})
	ix := &fleetIndex{f: f, maxRows: f.MaxRowsPerChunk(chunkSec)}
	for _, cam := range f.Cams {
		split := video.Split{Source: cam.Source, Interval: vtime.NewInterval(0, f.Frames), ChunkFrames: chunkFrames}
		prefix := make([]int32, split.NumChunks()+1)
		for _, ord := range split.ActiveChunks() {
			prefix[ord+1] = 1
		}
		for i := 1; i < len(prefix); i++ {
			prefix[i] += prefix[i-1]
		}
		ix.active = append(ix.active, prefix)
	}
	return ix
}

// activeChunks counts the active chunks of cams over [begin, end) minutes.
func (ix *fleetIndex) activeChunks(cams []int, begin, end int) int {
	n := 0
	for _, c := range cams {
		n += int(ix.active[c][end*chunksPerMin] - ix.active[c][begin*chunksPerMin])
	}
	return n
}

// drawWindow draws cameras and a window for one op of w from rng.
func (ix *fleetIndex) drawWindow(w workload, rng *rand.Rand) (cams []int, begin, end int) {
	for try := 0; try < 10000; try++ {
		cams = cams[:0]
		for len(cams) < w.camsPerOp {
			c := rng.Intn(w.cams)
			dup := false
			for _, p := range cams {
				dup = dup || p == c
			}
			if !dup {
				cams = append(cams, c)
			}
		}
		if w.target == 0 {
			begin = rng.Intn(w.minutes - w.windowMin + 1)
			return cams, begin, begin + w.windowMin
		}
		begin = rng.Intn(w.minutes)
		for end = begin + 1; end <= w.minutes; end++ {
			if ix.activeChunks(cams, begin, end) >= w.target {
				return cams, begin, end
			}
		}
		// The stream ended before the window held target chunks: redraw.
	}
	panic(fmt.Sprintf("bench: workload %s: no window holds %d active chunks", w.name, w.target))
}

// tsLiteral renders a minute offset from the stream start as a query
// timestamp literal (MM-DD-YYYY/H:MMam).
func (ix *fleetIndex) tsLiteral(min int) string {
	ts := ix.f.Start.Add(time.Duration(min) * time.Minute)
	hour, ampm := ts.Hour()%12, "am"
	if hour == 0 {
		hour = 12
	}
	if ts.Hour() >= 12 {
		ampm = "pm"
	}
	return fmt.Sprintf("%02d-%02d-%d/%d:%02d%s", int(ts.Month()), ts.Day(), ts.Year(), hour, ts.Minute(), ampm)
}

// newOp renders the query for one window and statement kind and derives
// its ground truth from the fleet's event lists.
func (ix *fleetIndex) newOp(cams []int, begin, end int, kind stmtKind) *opSpec {
	names := make([]string, len(cams))
	for i, c := range cams {
		names[i] = ix.f.Cams[c].Name
	}
	var sel string
	op := &opSpec{cams: append([]int(nil), cams...), begin: begin, end: end, kind: kind}
	switch kind {
	case stmtCount:
		sel = "SELECT COUNT(*) FROM t"
		total := 0.0
		for _, c := range cams {
			total += ix.f.ObjChunks(c, begin, end, chunkSec)
		}
		op.want = []wantRel{{raw: total}}
	case stmtGrouped:
		sel = fmt.Sprintf("SELECT COUNT(*) FROM (SELECT bin(chunk, %d) AS b FROM t) GROUP BY b", binSec)
		sum := map[int64]float64{}
		for _, c := range cams {
			for b, v := range ix.f.ObjChunksByBucket(c, begin, end, chunkSec, binSec) {
				sum[b] += v
			}
		}
		for b, v := range sum {
			op.want = append(op.want, wantRel{bucket: b, raw: v})
		}
	case stmtAvg:
		sel = fmt.Sprintf("SELECT AVG(range(id, 0, %d)) FROM t", avgClamp)
		op.want = []wantRel{{raw: ix.avgClampedID(cams, begin, end)}}
	}
	op.text = fmt.Sprintf(`SPLIT %s BEGIN %s END %s BY TIME %dsec STRIDE 0sec INTO chunks;
PROCESS chunks USING simobj TIMEOUT 5sec PRODUCING %d ROWS WITH SCHEMA (id:NUMBER=0) INTO t;
%s CONSUMING %g;`,
		strings.Join(names, ", "), ix.tsLiteral(begin), ix.tsLiteral(end), chunkSec, ix.maxRows, sel, queryEps)
	return op
}

// avgClampedID is the ground truth of AVG(range(id, 0, avgClamp)) over
// the simobj table: simobj emits one row per (object, chunk) incidence
// carrying the object's ID, so the mean weights each clamped ID by the
// number of chunks its [Enter, Exit) span overlaps. IDs are integers, so
// the sum is exact in any order and the quotient matches the engine's bit
// for bit.
func (ix *fleetIndex) avgClampedID(cams []int, begin, end int) float64 {
	lo, hi := int64(begin)*framesPerMin, int64(end)*framesPerMin
	var sum, n float64
	for _, c := range cams {
		for _, ev := range ix.f.Cams[c].Events {
			s, e := max(ev.Enter, lo), min(ev.Exit, hi)
			if e <= s {
				continue
			}
			chunks := float64((e-1-lo)/chunkFrames - (s-lo)/chunkFrames + 1)
			sum += chunks * float64(min(ev.ID, avgClamp))
			n += chunks
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// opSource hands out the ops of one run.
type opSource struct {
	w   workload
	ix  *fleetIndex
	hot []*opSpec // every hot window × statement kind; nil when w.hot == 0
}

// newOpSource draws the hot set (if any) from the seed.
func newOpSource(w workload, ix *fleetIndex, seed int64) *opSource {
	src := &opSource{w: w, ix: ix}
	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	for i := 0; i < w.hot; i++ {
		cams, begin, end := ix.drawWindow(w, rng)
		for _, k := range w.kinds {
			src.hot = append(src.hot, ix.newOp(cams, begin, end, k))
		}
	}
	return src
}

// next draws the next op from a client's own rng, so each client's op
// sequence depends on the seed alone, not on timing.
func (s *opSource) next(rng *rand.Rand) *opSpec {
	if s.hot != nil {
		return s.hot[rng.Intn(len(s.hot))]
	}
	cams, begin, end := s.ix.drawWindow(s.w, rng)
	return s.ix.newOp(cams, begin, end, s.w.kinds[rng.Intn(len(s.w.kinds))])
}
