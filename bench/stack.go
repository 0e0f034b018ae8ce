package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/server"
	"privid/internal/sim"
	"privid/internal/store"
)

// camPolicy is every fleet camera's privacy policy.
var camPolicy = policy.Policy{Rho: 25 * time.Second, K: 1}

// stack is one in-process deployment: fleet → engine → scheduler → HTTP
// API on a loopback listener, composed from exported constructors only.
// With a tracer it is the same deployment seen through the benchmark's
// seams (see trace.go); without one nothing of the benchmark sits inside
// the server.
type stack struct {
	w     workload
	ix    *fleetIndex
	ops   *opSource
	eng   *core.Engine
	sched *server.Scheduler
	wal   *store.WAL // traced durable stacks only: the benchmark opened it
	srv   *http.Server
	url   string
	dir   string // scratch directory of this stack (WAL state, disk cache, probes)
	tr    *tracer
	acks  ackLedger
	// setup is how long newStack took: fleet generation, boot, cache
	// population and prefill.
	setup time.Duration
}

// benchDir finds the benchmark's own directory from the working
// directory: run.sh and go test start in it, a by-hand run may start at
// the checkout's root.
func benchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "run.sh")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("bench: run from the checkout's root or its bench/ directory")
}

// scratchRoot is where stacks put their WAL state and disk-cache segments:
// .bench_build/scratch at the checkout's root, so the benchmark's files
// stay inside the checkout.
func scratchRoot() (string, error) {
	dir, err := benchDir()
	return filepath.Join(dir, "..", ".bench_build", "scratch"), err
}

// unsyncedFile is the WAL file of a durable stack with its fsync elided,
// installed through core.Options.WrapWALFile. The WAL fsyncs on every
// commit, and on the sandbox's shared virtio disk that fsync is what a run
// measures: ten same-seed runs of durable_small read 540–1020 qps
// (quartiles 42% of the median apart), wider than any bound a metric may
// carry. Without it the numbers are the software path's — what a tmpfs
// would give, and within noise of it when tried — and the device's share
// is carried by counts that do not depend on the device
// (store.fsyncs_per_op, store.records_per_fsync, store.wal_bytes_per_op)
// and by a probe of what one fsync costs here (store.fsync_ms). Snapshot
// files, written about once a second, still fsync.
type unsyncedFile struct{ store.File }

func (unsyncedFile) Sync() error { return nil }

// newStack generates the fleet from seed, boots the stack and populates
// its caches and logs.
func newStack(w workload, seed int64, tr *tracer) (_ *stack, err error) {
	start := time.Now()
	s := &stack{w: w, tr: tr}
	defer func() {
		if err != nil {
			s.close()
			s.removeDir()
		}
	}()
	s.ix = newFleetIndex(w, seed)
	s.ops = newOpSource(w, s.ix, seed)

	root, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	s.dir = dir

	opts := core.Options{Seed: seed, Evaluation: true, ChunkCacheBytes: w.ram}
	if w.disk {
		opts.DiskCacheDir = filepath.Join(dir, "chunks")
	}
	if w.durable {
		if tr == nil {
			opts.StateDir = s.stateDir()
			opts.WrapWALFile = func(f store.File) store.File { return unsyncedFile{f} }
		} else {
			// The engine would open the WAL exactly like this; opening it
			// here lets the store and file seams wrap it.
			wal, err := store.Open(s.stateDir(), store.Options{GroupCommit: true, WrapFile: tr.wrapFile})
			if err != nil {
				return nil, err
			}
			s.wal = wal
			opts.Store = &tracedStore{inner: wal, tr: tr}
		}
	}
	eng, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	for _, cam := range s.ix.f.Cams {
		cfg := core.CameraConfig{
			Name:    cam.Name,
			Source:  cam.Source,
			Policy:  camPolicy,
			Epsilon: cameraEps,
		}
		if tr != nil {
			cfg.Source = &tracedSource{SparseSource: cam.Source, tr: tr}
		}
		if err := eng.RegisterCamera(cfg); err != nil {
			return nil, err
		}
	}
	exec := sim.ObjExecutable()
	if tr != nil {
		exec = tr.wrapExec(exec)
	}
	if err := eng.Registry().Register("simobj", exec); err != nil {
		return nil, err
	}
	s.sched = server.NewScheduler(eng, server.SchedulerOptions{})
	var handler http.Handler = server.NewAPI(eng, s.sched)
	if tr != nil {
		handler = &tracedHandler{inner: handler, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	go func() { _ = s.srv.Serve(ln) }() // returns when close() shuts the server down

	if err := s.populate(seed); err != nil {
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// populate queries every hot window once with every statement kind (which
// fills the RAM tier, or pre-populates the disk tier), then prefills.
func (s *stack) populate(seed int64) error {
	c := newClient(s, nil)
	defer c.close()
	for _, op := range s.ops.hot {
		if rec := c.do(op, time.Time{}); !rec.ok {
			return fmt.Errorf("bench: %s: populating op failed: %s", s.w.name, rec.err)
		}
	}
	return s.prefill(seed)
}

// warmUp runs warmOps closed-loop ops so connections, pools and the heap
// reach steady state. It is load, not set-up: setup_s does not count it,
// or it would read the workload's throughput a second time, with a
// one-second sample's noise.
func (s *stack) warmUp(seed int64) error {
	res := runClosed(s, seed^0x7761726d, 0, s.w.warmOps)
	if res.failed > 0 {
		return fmt.Errorf("bench: %s: %d of %d warm-up ops failed: %s", s.w.name, res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// prefill executes w.prefill ops on the engine directly, which costs a
// third of what they cost over HTTP. durable_small needs them: the WAL
// keeps the last 10,000 audit entries (store.Options.MaxAudit), and from
// the 10,001st on every commit re-slices all of them — throughput drops by
// a quarter at that point and stays there, which is the state a server
// that has been up for a day is in, so it is the state to measure.
func (s *stack) prefill(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x70726566))
	for i := 0; i < s.w.prefill; i++ {
		op := s.ops.next(rng)
		prog, err := query.Parse(op.text)
		if err != nil {
			return fmt.Errorf("bench: %s: prefill: %w", s.w.name, err)
		}
		if _, err := s.eng.Execute(prog); err != nil {
			return fmt.Errorf("bench: %s: prefill: %w", s.w.name, err)
		}
		s.acks.add(op)
	}
	return nil
}

// close drains the scheduler, closes the engine (final WAL snapshot) and
// stops the listener. The scratch directory stays until removeDir so the
// WAL can be read back.
func (s *stack) close() {
	if s.srv != nil {
		_ = s.srv.Close() // idle keep-alive connections only: every client is closed
	}
	if s.sched != nil {
		s.sched.Close()
	}
	if s.eng != nil {
		_ = s.eng.Close()
	}
}

func (s *stack) stateDir() string { return filepath.Join(s.dir, "state") }

func (s *stack) removeDir() { _ = os.RemoveAll(s.dir) }

// ackLedger reconstructs, independently of the engine, what every camera
// must have been charged: one queryEps over the op's window for each op
// the client saw reach done. Every statement kind charges each frame of
// its window exactly once (the hour buckets of the grouped statement tile
// the window).
type ackLedger struct {
	mu      sync.Mutex
	windows map[int][][2]int // camera index → acknowledged [begin, end) minute windows
}

func (a *ackLedger) add(op *opSpec) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.windows == nil {
		a.windows = map[int][][2]int{}
	}
	for _, c := range op.cams {
		a.windows[c] = append(a.windows[c], [2]int{op.begin, op.end})
	}
}

// spentAt is the acknowledged charge total on one minute of one camera.
func (a *ackLedger) spentAt(cam, minute int) float64 {
	n := 0
	for _, w := range a.windows[cam] {
		if w[0] <= minute && minute < w[1] {
			n++
		}
	}
	return float64(n) * queryEps
}

// ledgerTolerance separates "same charges, summed in another order" from
// a missing or extra charge: float64 near cameraEps resolves 1.2e-7, a
// single charge is queryEps = 1e-3.
const ledgerTolerance = 1e-5

// checkLedger compares the live engine's remaining budget with the
// acknowledged charges at the midpoint of every acknowledged window's
// first occurrence (at most 64 per camera). The stack must be idle.
func (s *stack) checkLedger() error {
	s.acks.mu.Lock()
	defer s.acks.mu.Unlock()
	for cam, wins := range s.acks.windows {
		for _, w := range wins[:min(len(wins), 64)] {
			minute := (w[0] + w[1]) / 2
			name := s.ix.f.Cams[cam].Name
			rem, err := s.eng.Remaining(name, int64(minute)*framesPerMin)
			if err != nil {
				return err
			}
			if want := cameraEps - s.acks.spentAt(cam, minute); math.Abs(rem-want) > ledgerTolerance {
				return fmt.Errorf("bench: %s: ledger identity broken on %s minute %d: engine remaining %.9f, ε − acknowledged charges %.9f", s.w.name, name, minute, rem, want)
			}
		}
	}
	return nil
}

// checkWAL reads the closed stack's state dir back and requires the
// durable spent budget to equal the acknowledged charges.
func (s *stack) checkWAL() error {
	st, err := store.ReadState(s.stateDir(), 0)
	if err != nil {
		return fmt.Errorf("bench: %s: WAL read-back: %w", s.w.name, err)
	}
	s.acks.mu.Lock()
	defer s.acks.mu.Unlock()
	for cam, wins := range s.acks.windows {
		for _, w := range wins[:min(len(wins), 64)] {
			minute := (w[0] + w[1]) / 2
			name := s.ix.f.Cams[cam].Name
			got := st.Spent(name, int64(minute)*framesPerMin)
			if want := s.acks.spentAt(cam, minute); math.Abs(got-want) > ledgerTolerance {
				return fmt.Errorf("bench: %s: WAL read-back: %s minute %d has %.9f spent on disk, %.9f acknowledged", s.w.name, name, minute, got, want)
			}
		}
	}
	return nil
}
