// Package sandbox runs the analyst's untrusted per-chunk processing
// code under the isolation contract of Appendix B: each chunk is
// processed by an independent instantiation that can see only that
// chunk, must finish within a fixed TIMEOUT (else its output is the
// schema's default row), may emit at most max_rows rows, and has its
// output coerced into the declared schema.
//
// The paper runs Python executables in an isolated environment; this
// reproduction registers Go functions instead (documented in
// DESIGN.md). The privacy analysis depends only on the contract, which
// this harness enforces: no state survives across chunks through the
// API, over-production is truncated, panics and timeouts yield default
// rows, and execution cannot signal through anything but the rows.
package sandbox

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"privid/internal/table"
	"privid/internal/video"
)

// ProcessFunc is the analyst's per-chunk processing code. It must be a
// pure function of the chunk: implementations must not retain state
// between invocations (the harness runs each chunk on an independent
// instantiation and the engine may process chunks in any order or in
// parallel, so smuggled state is unreliable as well as forbidden).
type ProcessFunc func(chunk *video.Chunk) []table.Row

// Registry maps executable names (the USING clause) to ProcessFuncs.
// It is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]ProcessFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]ProcessFunc{}}
}

// Register binds a name to a processing function. Re-registering a
// name is an error: queries reference executables by name, and silent
// replacement would be a footgun.
func (r *Registry) Register(name string, fn ProcessFunc) error {
	if fn == nil {
		return fmt.Errorf("sandbox: nil ProcessFunc for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		return fmt.Errorf("sandbox: executable %q already registered", name)
	}
	r.m[name] = fn
	return nil
}

// Lookup resolves an executable name.
func (r *Registry) Lookup(name string) (ProcessFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	return fn, ok
}

// Names returns the registered executable names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Executor enforces the isolation contract around one ProcessFunc for
// one PROCESS statement.
type Executor struct {
	Fn      ProcessFunc
	Timeout time.Duration
	MaxRows int
	Schema  table.Schema
	// Done, if non-nil, is called exactly once per execution when the
	// executable goroutine actually exits. On a timeout that is later
	// than the run's own return — which is what lets callers bound the
	// true number of in-flight executions rather than the number of
	// un-returned runs.
	Done func()
}

// RunChecked processes one chunk and returns schema-conforming rows,
// reporting whether the executable completed cleanly. On timeout,
// panic, or crash the executor returns the single default row
// (Appendix D's TIMEOUT semantics) and ok is false: those outcomes
// depend on machine load rather than on the chunk alone, so callers
// memoizing results (the engine's chunk cache) must not treat them as
// the chunk's true output. Output beyond MaxRows is dropped; every row
// is coerced to the schema.
func (e *Executor) RunChecked(chunk *video.Chunk) (rows []table.Row, ok bool) {
	raw, ok := e.run(chunk)
	out := make([]table.Row, len(raw))
	for i, r := range raw {
		out[i] = e.Schema.Conform(r)
	}
	return out, ok
}

// RunTable is RunChecked returning the rows as a table in the declared
// schema: table.FromRows conforms the executable's raw rows as it
// ingests them, so no row is copied. It is the engine's ingest path.
func (e *Executor) RunTable(chunk *video.Chunk) (*table.Table, bool) {
	raw, ok := e.run(chunk)
	return table.FromRows(e.Schema, raw), ok
}

// run executes the ProcessFunc on its own goroutine and returns its raw
// rows cut to MaxRows, or the default row and false. The goroutine
// captures Fn and Done, not e, so the caller's Executor stays off the
// heap.
func (e *Executor) run(chunk *video.Chunk) (raw []table.Row, ok bool) {
	a := attempts.Get().(*attempt)
	fn, done, exited := e.Fn, a.done, e.Done
	go func() {
		if exited != nil {
			defer exited()
		}
		defer func() {
			if recover() != nil {
				done <- result{ok: false}
			}
		}()
		rows := fn(chunk)
		done <- result{rows: rows, ok: true}
	}()

	var res result
	if e.Timeout > 0 {
		a.timer.Reset(e.Timeout)
		select {
		case res = <-done:
			// go.mod's go 1.24 makes Stop synchronous: once it returns,
			// no fire of this arming can reach the attempt's next user.
			a.timer.Stop()
			attempts.Put(a)
		case <-a.timer.C:
			// Timed out (res stays not-ok): the goroutine may still be
			// running and its send is still to come, so the attempt is
			// dropped, not reused.
		}
	} else {
		res = <-done
		attempts.Put(a)
	}
	if !res.ok {
		return []table.Row{e.Schema.DefaultRow()}, false
	}
	raw = res.rows
	if e.MaxRows > 0 && len(raw) > e.MaxRows {
		raw = raw[:e.MaxRows]
	}
	return raw, true
}

// result is what an execution's goroutine reports.
type result struct {
	rows []table.Row
	ok   bool
}

// attempt is what one execution needs from the heap besides its
// goroutine: the channel the goroutine reports on (buffered, so a send
// after a timeout never blocks) and the TIMEOUT timer. An execution
// whose report was received leaves both idle, so they are pooled — a
// clean or panicking execution allocates neither.
type attempt struct {
	done  chan result
	timer *time.Timer
}

var attempts = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &attempt{done: make(chan result, 1), timer: t}
}}
