// Command bench is the service benchmark: it boots a real in-process
// Privid stack, drives it over HTTP with a seeded load generator, checks
// every answer against the fleet's closed-form ground truth, and prints
// end-to-end metrics (tracing off) and per-layer metrics (a separate
// traced run). See README.md for the workloads and how to read the
// numbers; BENCHMARK.json at the repository root declares the contract.
//
//	bash bench/run.sh --workload cold_scan --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// Which runs an invocation makes.
const (
	traceOff  = 0 // measured run only: end-to-end metrics
	traceOn   = 1 // traced run only (plus a short untraced reference): per-layer metrics
	traceBoth = 2 // measured run, then traced run
)

// The measured run's stack is set up at least minSetups times and until
// setupFor has gone into set-ups; the median is reported as setup_s, the
// last stack is warmed up and used. A set-up takes 0.1 s (cold_scan) to
// 1.3 s (durable_small): the short ones repeat some thirty times, because
// one 10 ms stall of the host is a tenth of such a set-up.
const (
	minSetups = 3
	setupFor  = 3 * time.Second
)

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *result) fail(err error) {
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) absorb(run *runResult) {
	r.Attempted += run.attempted
	r.Failed += run.failed
	if run.failed > 0 {
		r.Errors = append(r.Errors, fmt.Sprintf("%d of %d ops failed, first: %s", run.failed, run.attempted, run.firstErr))
	}
}

func load(s *stack, seed int64, dur time.Duration) *runResult {
	if s.w.open {
		return runOpen(s, seed, dur)
	}
	return runClosed(s, seed, dur, 0)
}

// rampUp is how long an open loop's schedule runs before anything is
// measured. Warm-up is closed-loop and leaves both cores busy; the first
// seconds of the open loop after it ran a fifth faster (p95 17 ms against
// 25 ms from the fourth second on, on every run), and a run must report
// the schedule's own steady state, not that transient.
const rampUp = 4 * time.Second

// ramp brings a set-up stack to the state a run measures: the closed-loop
// warm-up, then for an open loop its schedule, unmeasured; the schedule's
// ops still count as attempted, and must be answered correctly.
func (r *result) ramp(s *stack, seed int64, dur time.Duration) {
	r.fail(s.warmUp(seed))
	if s.w.open {
		r.absorb(runOpen(s, seed^0x72616d70, min(rampUp, dur)))
	}
}

// verify runs the post-run invariants on an idle stack and tears it down.
func (r *result) verify(s *stack) {
	r.fail(s.checkLedger())
	s.close()
	if s.w.durable {
		r.fail(s.checkWAL())
	}
	s.removeDir()
}

// procStats describes the process over an untraced run: the span buffer
// of a traced run would sit in its heap numbers.
type procStats struct {
	heapPeak uint64 // bytes in use by the heap, sampled at 10 Hz
	usage    usage  // delta over the run
	dur      time.Duration
}

// every calls fn now and then once per period, on one goroutine, until the
// returned function is called, which calls fn a last time.
func every(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-done:
				fn()
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// heapInUse reads the bytes the heap holds, without stopping the world.
func heapInUse() uint64 {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

// measured sets the stack up, once or (repeat) as setupFor says, runs the
// load for dur with tracing off, and returns the end-to-end metrics.
func (r *result) measured(w workload, seed int64, dur time.Duration, repeat bool) (map[string]float64, procStats) {
	var s *stack
	var setupSecs []float64
	var spent time.Duration
	for i := 0; i == 0 || repeat && (i < minSetups || spent < setupFor); i++ {
		if s != nil {
			s.close()
			s.removeDir()
		}
		var err error
		if s, err = newStack(w, seed, nil); err != nil {
			r.fail(err)
			return nil, procStats{}
		}
		setupSecs = append(setupSecs, s.setup.Seconds())
		spent += s.setup
	}
	r.ramp(s, seed, dur)
	runtime.GC()
	var heapPeak uint64
	stopHeap := every(100*time.Millisecond, func() { heapPeak = max(heapPeak, heapInUse()) })
	var usages []usage
	stopUsage := every(rateStep, func() { usages = append(usages, readUsage()) })
	run := load(s, seed, dur)
	stopUsage()
	stopHeap()
	proc := procStats{heapPeak: heapPeak, usage: usages[len(usages)-1].sub(usages[0]), dur: dur}
	r.absorb(run)
	r.verify(s)
	return endToEndMetrics(run, usages, time.Duration(median(setupSecs)*float64(time.Second))), proc
}

// traced runs the load for dur on a stack seen through the seams, then
// the probes, and returns the per-layer metrics. refQPS and proc are the
// same workload's throughput and process statistics with tracing off.
func (r *result) traced(w workload, seed int64, dur time.Duration, refQPS float64, proc procStats) map[string]float64 {
	tr := newTracer()
	s, err := newStack(w, seed, tr)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.ramp(s, seed, dur)
	runtime.GC()
	c0 := s.readCounters()
	tr.on.Store(true)
	run := load(s, seed, dur)
	tr.on.Store(false)
	c1 := s.readCounters()
	r.absorb(run)

	tracedQPS := endToEndMetrics(run, nil, 0)["throughput_qps"]
	pr, err := runProbes(s)
	r.fail(err)
	m := layerMetrics(s, run, c0, c1, proc, refQPS, tracedQPS, pr)
	r.fail(tr.dump(w.name))
	// The identity must hold for 99.9% of ops; one op is always forgiven,
	// because a step of the wall clock during an op breaks it for that op.
	if bad := (1 - m["client.identity_ok_share"]) * float64(len(run.recs)); bad > max(1.5, 0.001*float64(len(run.recs))) {
		r.fail(fmt.Errorf("latency identity (ingress+queue+exec+lag == latency) fails for %.0f of %d ops", bad, len(run.recs)))
	}
	r.verify(s)
	return m
}

// runWorkload makes the runs mode asks for and gathers their metrics; the
// measured run's stack is set up once or, with repeat, as setupFor says.
func runWorkload(w workload, seed int64, dur time.Duration, mode int, repeat bool) *result {
	r := &result{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
	var e2e map[string]float64
	var proc procStats
	if mode != traceOn {
		e2e, proc = r.measured(w, seed, dur, repeat)
		for k, v := range e2e {
			r.Metrics[k] = v
		}
	}
	if mode != traceOff && len(r.Errors) == 0 {
		if e2e == nil {
			// No measured run to compare with: a half-length untraced
			// reference, not reported, gives trace.overhead_share its base
			// and the process metrics their run.
			e2e, proc = r.measured(w, seed, dur/2, false)
		}
		for k, v := range r.traced(w, seed, dur, e2e["throughput_qps"], proc) {
			r.Metrics[k] = v
		}
	}
	return r
}

// declared lists every metric in declaration order.
func declared() []metricDecl {
	return append(append([]metricDecl(nil), endToEnd...), perLayer...)
}

func unitOf(name string) string {
	for _, d := range declared() {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// printMetrics writes one "workload metric value unit" line per metric,
// in declaration order.
func printMetrics(out io.Writer, r *result) {
	for _, d := range declared() {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(out, "%s %s %.6g %s\n", r.Workload, d.Name, v, d.Unit)
		}
	}
	fmt.Fprintf(out, "%s failed_share %.6g ratio (%d of %d ops)\n", r.Workload, float64(r.Failed)/float64(max(1, r.Attempted)), r.Failed, r.Attempted)
	if w := r.Metrics["core.unattributed_share"]; w > 0.25 {
		fmt.Fprintf(out, "%s warning: core.unattributed_share %.2f exceeds 0.25: the probes explain too little of the engine's self time\n", r.Workload, w)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "%s ERROR %s\n", r.Workload, e)
	}
}

// compareAA prints the gap between two runs of the same code for every
// end-to-end metric and reports whether each stays within its own bound.
func compareAA(out io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %8s %6s\n", "workload", "metric", "run A", "run B", "worse by", "bound")
	for i := range a {
		for _, d := range endToEnd {
			va, vb := a[i].Metrics[d.Name], b[i].Metrics[d.Name]
			gap := (vb - va) / va // how much worse B reads than A
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if math.Abs(gap) > d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(out, "%-14s %-16s %12.5g %12.5g %+7.1f%% %5.0f%%%s\n", a[i].Workload, d.Name, va, vb, 100*gap, 100*d.Bound, verdict)
		}
	}
	return ok
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "workload name, or several separated by commas (default: all)")
	seed := fs.Int64("seed", 1, "seed of the generator: fleet, windows and op mix")
	seconds := fs.Float64("seconds", 10, "length of each measured and each traced run")
	mode := fs.Int("trace", traceBoth, "0: measured run only; 1: traced run only; 2: both")
	outFile := fs.String("out", "", "also write the results as JSON to this file")
	aa := fs.Bool("aa", false, "run the measured suite twice and fail if any end-to-end metric pair differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	if *names == "" {
		selected = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}
	if *seconds <= 0 || *mode < traceOff || *mode > traceBoth {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace one of 0, 1, 2")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if root, err := scratchRoot(); err == nil {
		fmt.Fprintf(out, "# seed %d, %gs runs, %d load clients, GOMAXPROCS %d, %s; WAL state (fsync elided) and disk cache under %s\n",
			*seed, *seconds, loadClients(), runtime.GOMAXPROCS(0), runtime.Version(), root)
	}

	suite := func() []*result {
		var rs []*result
		for _, w := range selected {
			m := *mode
			if *aa {
				m = traceOff
			}
			r := runWorkload(w, *seed, dur, m, true)
			printMetrics(out, r)
			rs = append(rs, r)
		}
		return rs
	}
	results := suite()
	exit := 0
	if *aa {
		second := suite()
		if !compareAA(out, results, second) {
			exit = 1
		}
		results = append(results, second...)
	}

	// The last line: one JSON object. With one workload its metrics carry
	// their declared names; with several, "<workload>/<name>".
	final := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]jsMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsMetric{}}
	for _, r := range results {
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		if r.Failed > 0 || len(r.Errors) > 0 {
			final.Correct = false
		}
		for k, v := range r.Metrics {
			name := k
			if len(selected) > 1 {
				name = r.Workload + "/" + k
			}
			final.Metrics[name] = jsMetric{Value: v, Unit: unitOf(k)}
		}
	}
	if !final.Correct || final.Attempted == 0 {
		exit = 1
	}
	if *outFile != "" {
		b, _ := json.MarshalIndent(results, "", "  ") // plain structs and floats
		if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			exit = 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil { // a NaN metric: a bug in the benchmark
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return exit
}

type jsMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
