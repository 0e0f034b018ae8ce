// Command privid-benchdiff compares a `go test -bench` run against the
// committed benchmark snapshot (BENCH_N.json) and fails when a
// performance contract regresses.
//
// The snapshot's "ci_contract" section encodes machine-independent
// checks — ratios between benchmarks measured in the same run (cache
// speedups, sharded speedup, columnar-vs-row-major) and allocation
// counts (deterministic per operation) — rather than absolute ns/op,
// which vary with the runner. Each check carries a noise tolerance;
// a regression beyond it fails the build.
//
// The snapshot's "size" section is the same idea for code size: see
// size.go.
//
// Usage:
//
//	go test -run xxx -bench ... -count 3 ./... | tee bench.txt
//	privid-benchdiff -baseline BENCH_12.json -bench bench.txt
//	privid-benchdiff -size .                          # print the size table
//	privid-benchdiff -size . -baseline BENCH_12.json  # enforce its ceilings
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// measurement is the min-over-repeats result of one benchmark.
type measurement struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	bytesPerOp  float64
	hasBytes    bool
	samples     int
	// metrics holds custom b.ReportMetric values keyed by their unit
	// string (e.g. "sandbox-execs/op", "dedup-ratio"), min over
	// repeats.
	metrics map[string]float64
}

// check is one entry of ci_contract.checks.
type check struct {
	// Name labels the check in output.
	Name string `json:"name"`
	// Kind selects the comparison:
	//   "ratio"       — ns/op of Num divided by ns/op of Den, fail if
	//                   below the floor (a speedup that shrank);
	//   "alloc_ratio" — allocs/op of Num divided by allocs/op of Den,
	//                   fail if below the floor;
	//   "bytes_ratio" — B/op of Num divided by B/op of Den, fail if
	//                   below the floor (the streaming-aggregation
	//                   contract: bytes allocated per op must stay a
	//                   multiple below the materialized path's);
	//   "max_allocs"  — allocs/op of Benchmark, fail if above
	//                   recorded*(1+tolerance) (allocations are
	//                   deterministic, so this is machine-independent),
	//                   or below recorded*(1-tolerance): a pin left far
	//                   above the code would pass a regression up to it,
	//                   so a saving must lower its pin;
	//   "max_bytes"   — B/op of Benchmark, fail if above
	//                   recorded*(1+tolerance);
	//   "max_metric"  — a custom b.ReportMetric value of Benchmark
	//                   (named by Metric, e.g. "sandbox-execs/op"),
	//                   fail if above recorded*(1+tolerance). Use it
	//                   for deterministic work counters: the
	//                   singleflight contract pins sandbox executions
	//                   per fan-out op this way.
	Kind string `json:"kind"`
	// Num and Den name the benchmarks of a ratio check; Benchmark
	// names the single benchmark of a max_allocs or max_metric check.
	Num       string `json:"num,omitempty"`
	Den       string `json:"den,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	// Metric is the custom metric's unit string for max_metric checks.
	Metric string `json:"metric,omitempty"`
	// Recorded is the value measured when the snapshot was taken.
	Recorded float64 `json:"recorded"`
	// Tolerance overrides the contract-wide tolerance (fraction, e.g.
	// 0.2 = 20%).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Floor is an absolute minimum for ratio checks (acceptance
	// criteria like "disk-warm must stay >=10x cold"); the effective
	// threshold is max(Recorded*(1-tolerance), Floor).
	Floor float64 `json:"floor,omitempty"`
}

type contract struct {
	Tolerance float64 `json:"tolerance"`
	Checks    []check `json:"checks"`
}

type baseline struct {
	Snapshot   string   `json:"snapshot"`
	CIContract contract `json:"ci_contract"`
}

func main() {
	baselinePath := flag.String("baseline", "", "benchmark snapshot JSON with a ci_contract section")
	benchPath := flag.String("bench", "", "go test -bench output ('-' = stdin)")
	sizeRoot := flag.String("size", "", "module root: print its per-package size table, or with -baseline enforce the snapshot's")
	flag.Parse()
	if *sizeRoot != "" {
		ok, err := runSize(*sizeRoot, *baselinePath)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *baselinePath == "" || *benchPath == "" {
		fmt.Fprintln(os.Stderr, "usage: privid-benchdiff -baseline BENCH_N.json -bench bench.txt | -size DIR [-baseline BENCH_N.json]")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}
	if len(base.CIContract.Checks) == 0 {
		fatal(fmt.Errorf("%s: no ci_contract.checks — nothing to enforce", *baselinePath))
	}

	var in *os.File
	if *benchPath == "-" {
		in = os.Stdin
	} else {
		in, err = os.Open(*benchPath)
		if err != nil {
			fatal(err)
		}
		defer in.Close()
	}
	results, err := parseBench(in)
	if err != nil {
		fatal(err)
	}

	failed := 0
	for _, c := range base.CIContract.Checks {
		tol := c.Tolerance
		if tol == 0 {
			tol = base.CIContract.Tolerance
		}
		if tol == 0 {
			tol = 0.20
		}
		ok, detail, err := evaluate(c, tol, results)
		if err != nil {
			fmt.Printf("FAIL %-32s %v\n", c.Name, err)
			failed++
			continue
		}
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-32s %s\n", status, c.Name, detail)
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d contract checks failed against %s\n",
			failed, len(base.CIContract.Checks), base.Snapshot)
		os.Exit(1)
	}
	fmt.Printf("\nall %d contract checks hold against %s\n", len(base.CIContract.Checks), base.Snapshot)
}

func evaluate(c check, tol float64, results map[string]*measurement) (bool, string, error) {
	get := func(name string) (*measurement, error) {
		m, ok := results[name]
		if !ok {
			return nil, fmt.Errorf("benchmark %s missing from the run", name)
		}
		return m, nil
	}
	switch c.Kind {
	case "ratio", "alloc_ratio", "bytes_ratio":
		num, err := get(c.Num)
		if err != nil {
			return false, "", err
		}
		den, err := get(c.Den)
		if err != nil {
			return false, "", err
		}
		var measured float64
		switch c.Kind {
		case "ratio":
			if den.nsPerOp == 0 {
				return false, "", fmt.Errorf("%s reported 0 ns/op", c.Den)
			}
			measured = num.nsPerOp / den.nsPerOp
		case "alloc_ratio":
			if !num.hasAllocs || !den.hasAllocs {
				return false, "", fmt.Errorf("alloc_ratio needs -benchmem or ReportAllocs on both benchmarks")
			}
			if den.allocsPerOp == 0 {
				den.allocsPerOp = 1 // zero-alloc denominator: treat as 1 to stay finite
			}
			measured = num.allocsPerOp / den.allocsPerOp
		case "bytes_ratio":
			if !num.hasBytes || !den.hasBytes {
				return false, "", fmt.Errorf("bytes_ratio needs -benchmem or ReportAllocs on both benchmarks")
			}
			if den.bytesPerOp == 0 {
				den.bytesPerOp = 1 // zero-byte denominator: treat as 1 to stay finite
			}
			measured = num.bytesPerOp / den.bytesPerOp
		}
		threshold := c.Recorded * (1 - tol)
		if c.Floor > threshold {
			threshold = c.Floor
		}
		detail := fmt.Sprintf("%.2fx (recorded %.2fx, threshold %.2fx)", measured, c.Recorded, threshold)
		return measured >= threshold, detail, nil
	case "max_allocs":
		m, err := get(c.Benchmark)
		if err != nil {
			return false, "", err
		}
		if !m.hasAllocs {
			return false, "", fmt.Errorf("max_allocs needs -benchmem or ReportAllocs on %s", c.Benchmark)
		}
		limit, floor := c.Recorded*(1+tol), c.Recorded*(1-tol)
		detail := fmt.Sprintf("%.0f allocs/op (recorded %.0f, limit %.0f)", m.allocsPerOp, c.Recorded, limit)
		if m.allocsPerOp < floor {
			detail += fmt.Sprintf("; below %.0f, the pin is loose: lower recorded to the measured count", floor)
		}
		return m.allocsPerOp <= limit && m.allocsPerOp >= floor, detail, nil
	case "max_bytes":
		m, err := get(c.Benchmark)
		if err != nil {
			return false, "", err
		}
		if !m.hasBytes {
			return false, "", fmt.Errorf("max_bytes needs -benchmem or ReportAllocs on %s", c.Benchmark)
		}
		limit := c.Recorded * (1 + tol)
		detail := fmt.Sprintf("%.0f B/op (recorded %.0f, limit %.0f)", m.bytesPerOp, c.Recorded, limit)
		return m.bytesPerOp <= limit, detail, nil
	case "max_metric":
		m, err := get(c.Benchmark)
		if err != nil {
			return false, "", err
		}
		v, ok := m.metrics[c.Metric]
		if !ok {
			return false, "", fmt.Errorf("%s did not report metric %q", c.Benchmark, c.Metric)
		}
		limit := c.Recorded * (1 + tol)
		detail := fmt.Sprintf("%.2f %s (recorded %.2f, limit %.2f)", v, c.Metric, c.Recorded, limit)
		return v <= limit, detail, nil
	default:
		return false, "", fmt.Errorf("unknown check kind %q", c.Kind)
	}
}

// parseBench reads `go test -bench` output, keyed by benchmark name
// with the GOMAXPROCS suffix stripped; repeated counts keep the
// minimum (the least-noise estimate of the machine's capability).
func parseBench(f *os.File) (map[string]*measurement, error) {
	out := map[string]*measurement{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var ns, allocs, bytes float64
		hasNs, hasAllocs, hasBytes := false, false, false
		var metrics map[string]float64
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			switch unit {
			case "ns/op":
				ns, hasNs = v, true
			case "allocs/op":
				allocs, hasAllocs = v, true
			case "B/op":
				bytes, hasBytes = v, true
			case "MB/s":
				// standard unit we don't track
			default:
				// A non-numeric token after a value is a custom
				// b.ReportMetric unit (e.g. "sandbox-execs/op").
				if _, err := strconv.ParseFloat(unit, 64); err == nil {
					continue
				}
				if metrics == nil {
					metrics = map[string]float64{}
				}
				metrics[unit] = v
			}
		}
		if !hasNs {
			continue
		}
		m, ok := out[name]
		if !ok {
			m = &measurement{nsPerOp: ns, allocsPerOp: allocs, hasAllocs: hasAllocs,
				bytesPerOp: bytes, hasBytes: hasBytes, metrics: metrics}
			out[name] = m
		} else {
			if ns < m.nsPerOp {
				m.nsPerOp = ns
			}
			if hasAllocs && (!m.hasAllocs || allocs < m.allocsPerOp) {
				m.allocsPerOp = allocs
				m.hasAllocs = true
			}
			if hasBytes && (!m.hasBytes || bytes < m.bytesPerOp) {
				m.bytesPerOp = bytes
				m.hasBytes = true
			}
			for unit, v := range metrics {
				if m.metrics == nil {
					m.metrics = map[string]float64{}
				}
				if prev, ok := m.metrics[unit]; !ok || v < prev {
					m.metrics[unit] = v
				}
			}
		}
		m.samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "privid-benchdiff:", err)
	os.Exit(1)
}
