package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privid/internal/sandbox"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
	"privid/internal/vtime"
)

// Outside-in tracing. The traced run records a span at every boundary
// the benchmark can reach through an exported parameter of the system
// under test — nothing inside the program is touched:
//
//	client   the request helper in load.go (one span per HTTP request)
//	server   an http.Handler around server.NewAPI (tracedHandler), plus
//	         queue-wait and exec spans rebuilt from the job JSON timestamps
//	video    a video.SparseSource in CameraConfig.Source (tracedSource)
//	sandbox  a wrapper around the registered ProcessFunc (wrapExec)
//	store    a store.Store in core.Options.Store (tracedStore) around a WAL
//	         opened with WrapFile (tracedFile)
//
// Spans stay in memory and are written to out/trace-<workload>.jsonl when
// the run ends. Every seam is a pass-through while tr.on is false, which
// is how the traced stack warms up without recording.
const (
	spanOp           = "op"
	spanClientSubmit = "client.http_submit"
	spanClientPoll   = "client.http_poll"
	spanServerSubmit = "server.http_submit"
	spanServerPoll   = "server.http_poll"
	spanQueueWait    = "server.queue_wait"
	spanExec         = "server.exec"
	spanSandbox      = "sandbox.exec"
	spanChargeCommit = "store.charge_commit"
	spanJobCommit    = "store.job_commit"
	spanAuditCommit  = "store.audit_commit"
	spanFsync        = "store.fsync"
)

// spanHeader carries "<op>/<client span id>" from the client seam to the
// handler seam.
const spanHeader = "X-Bench-Span"

// span is one timed call: start and end in ns since tracer.base, the span
// that caused it, and the op (root span id) it belongs to. Op 0 means the
// seam could not tell (group-commit fsyncs serve several ops).
type span struct {
	name            string
	id, parent, op  int64
	start, end      int64
	bytes, children int64 // response bytes (polls) or records (commits); 0 elsewhere
}

// liveOp is an op in flight, as the seams see it. The span IDs of its
// server-side queue-wait and exec spans are reserved when the op begins,
// so the sandbox and store seams can name exec as their parent before the
// client has learned when exec began.
type liveOp struct {
	op, queueID, execID int64
	cams                []string
	frames              vtime.Interval
	qhash               string
	charged             atomic.Bool // a charge commit has been attributed to it
}

type tracer struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	liveMu sync.RWMutex
	live   []*liveOp
	byJob  map[string]*liveOp // kept for the whole run: job commits land after the op ends

	// video seam: exact frame count, and read time sampled on every
	// frameSample-th frame index (a time.Now pair costs as much as the
	// read it would time). Sharded by frame index so the two chunk
	// workers of an op do not share a cache line.
	frames [8]struct {
		n, sampledNs atomic.Int64
		_            [48]byte
	}
	clockBias int64
	walBytes  atomic.Int64

	// Inputs captured for the probes: rows the executable really returned.
	sampleMu sync.Mutex
	samples  [][]table.Row
}

const frameSample = 8

// maxSamples bounds the captured chunk outputs.
const maxSamples = 256

func newTracer() *tracer {
	tr := &tracer{base: time.Now(), byJob: map[string]*liveOp{}}
	// What a time.Now/time.Since pair reads around nothing: subtracted
	// from every sampled frame read, which is itself only a few times
	// longer.
	const n = 10000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += time.Since(time.Now())
	}
	tr.clockBias = int64(sum / n)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// since also takes the wall-clock instants of the job JSON: Sub falls
// back to wall time when one side has no monotonic reading.
func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.base)) }

func (tr *tracer) add(name string, id, parent, op, start, end int64) {
	tr.addSpan(span{name: name, id: id, parent: parent, op: op, start: start, end: end})
}

func (tr *tracer) addSpan(sp span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// queryHash is how server.Scheduler tags a job's WAL charge records; the
// store seam uses it to find the op a charge commit belongs to.
func queryHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return fmt.Sprintf("%x", sum[:8])
}

// begin registers an op about to be submitted.
func (tr *tracer) begin(ix *fleetIndex, op *opSpec) *liveOp {
	first := tr.nextID.Add(3) - 2
	lo := &liveOp{
		op: first, queueID: first + 1, execID: first + 2,
		frames: vtime.NewInterval(int64(op.begin)*framesPerMin, int64(op.end)*framesPerMin),
		qhash:  queryHash(op.text),
	}
	for _, c := range op.cams {
		lo.cams = append(lo.cams, ix.f.Cams[c].Name)
	}
	tr.liveMu.Lock()
	tr.live = append(tr.live, lo)
	tr.liveMu.Unlock()
	return lo
}

func (tr *tracer) bindJob(lo *liveOp, jobID string) {
	tr.liveMu.Lock()
	tr.byJob[jobID] = lo
	tr.liveMu.Unlock()
}

// end closes the op: the root span, and the queue-wait and exec spans
// rebuilt from the job's own timestamps.
func (tr *tracer) end(rec *opRec) {
	lo := rec.live
	tr.liveMu.Lock()
	for i, o := range tr.live {
		if o == lo {
			tr.live = append(tr.live[:i], tr.live[i+1:]...)
			break
		}
	}
	tr.liveMu.Unlock()
	tr.add(spanOp, lo.op, 0, lo.op, tr.since(rec.t0), tr.since(rec.done))
	if !rec.finished.IsZero() {
		tr.add(spanQueueWait, lo.queueID, lo.op, lo.op, tr.since(rec.submitted), tr.since(rec.started))
		tr.add(spanExec, lo.execID, lo.op, lo.op, tr.since(rec.started), tr.since(rec.finished))
	}
}

// findChunk returns the live op whose window covers the chunk. Two live
// ops covering the same chunk (a hot window queried twice at once) share
// the execution anyway; the first is named.
func (tr *tracer) findChunk(camera string, iv vtime.Interval) *liveOp {
	tr.liveMu.RLock()
	defer tr.liveMu.RUnlock()
	for _, lo := range tr.live {
		if iv.Start < lo.frames.Start || iv.End > lo.frames.End {
			continue
		}
		for _, c := range lo.cams {
			if c == camera {
				return lo
			}
		}
	}
	return nil
}

// --- video seam ----------------------------------------------------

type tracedSource struct {
	video.SparseSource
	tr *tracer
}

func (s *tracedSource) Frame(i int64) video.Frame {
	if !s.tr.on.Load() {
		return s.SparseSource.Frame(i)
	}
	sh := &s.tr.frames[(i>>6)&7]
	sh.n.Add(1)
	if i%frameSample != 0 {
		return s.SparseSource.Frame(i)
	}
	start := time.Now()
	f := s.SparseSource.Frame(i)
	sh.sampledNs.Add(max(0, int64(time.Since(start))-s.tr.clockBias))
	return f
}

// videoTotals returns frames read and the read time estimated from the
// sampled frames.
func (tr *tracer) videoTotals() (frames int64, read time.Duration) {
	var ns int64
	for i := range tr.frames {
		frames += tr.frames[i].n.Load()
		ns += tr.frames[i].sampledNs.Load()
	}
	return frames, time.Duration(ns * frameSample)
}

// --- sandbox seam --------------------------------------------------

func (tr *tracer) wrapExec(fn sandbox.ProcessFunc) sandbox.ProcessFunc {
	return func(c *video.Chunk) []table.Row {
		if !tr.on.Load() {
			rows := fn(c)
			tr.sampleMu.Lock()
			if len(tr.samples) < maxSamples {
				tr.samples = append(tr.samples, rows)
			}
			tr.sampleMu.Unlock()
			return rows
		}
		start := tr.now()
		rows := fn(c)
		end := tr.now()
		sp := span{name: spanSandbox, id: tr.nextID.Add(1), start: start, end: end}
		if lo := tr.findChunk(c.Camera, c.Interval); lo != nil {
			sp.parent, sp.op = lo.execID, lo.op
		}
		tr.addSpan(sp)
		return rows
	}
}

// --- server seam ---------------------------------------------------

type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get(spanHeader)
	if hdr == "" || !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	opStr, parentStr, _ := strings.Cut(hdr, "/")
	op, _ := strconv.ParseInt(opStr, 10, 64)         // the client seam wrote both
	parent, _ := strconv.ParseInt(parentStr, 10, 64) // numbers
	name := spanServerPoll
	if r.Method == http.MethodPost {
		name = spanServerSubmit
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.tr.now()
	h.inner.ServeHTTP(cw, r)
	h.tr.addSpan(span{name: name, id: h.tr.nextID.Add(1), parent: parent, op: op, start: start, end: h.tr.now(), bytes: cw.n})
}

// --- store seam ----------------------------------------------------

type tracedStore struct {
	inner store.Store
	tr    *tracer
}

func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) Commit(recs ...store.Record) error {
	if !s.tr.on.Load() {
		return s.inner.Commit(recs...)
	}
	start := s.tr.now()
	err := s.inner.Commit(recs...)
	sp := span{name: spanAuditCommit, id: s.tr.nextID.Add(1), start: start, end: s.tr.now(), children: int64(len(recs))}
	s.tr.liveMu.RLock()
	for _, rec := range recs {
		switch {
		case rec.Job != nil:
			// After finished_at: holds the worker, not the result.
			sp.name = spanJobCommit
			if lo := s.tr.byJob[rec.Job.ID]; lo != nil {
				sp.parent, sp.op = lo.op, lo.op
			}
		case rec.Charge != nil && sp.name != spanChargeCommit:
			// Inside exec: the result waits for it.
			sp.name = spanChargeCommit
			for _, lo := range s.tr.live {
				if lo.qhash == rec.Charge.Query && lo.charged.CompareAndSwap(false, true) {
					sp.parent, sp.op = lo.execID, lo.op
					break
				}
			}
		}
	}
	s.tr.liveMu.RUnlock()
	s.tr.addSpan(sp)
	return err
}

// tracedFile counts the WAL file's fsyncs and bytes. Like unsyncedFile on
// the measured stack it elides the fsync itself, so a span here marks an
// instant; probe.go times what a real one costs.
type tracedFile struct {
	store.File
	tr *tracer
}

func (tr *tracer) wrapFile(f store.File) store.File { return &tracedFile{File: f, tr: tr} }

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.tr.on.Load() {
		f.tr.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	if f.tr.on.Load() {
		now := f.tr.now()
		f.tr.add(spanFsync, f.tr.nextID.Add(1), 0, 0, now, now)
	}
	return nil
}

// --- reading the trace back ----------------------------------------

// byName returns the total duration and count of the spans called name.
func (tr *tracer) byName(name string) (total time.Duration, n int64) {
	for i := range tr.spans {
		if tr.spans[i].name == name {
			total += time.Duration(tr.spans[i].end - tr.spans[i].start)
			n++
		}
	}
	return total, n
}

// selfTime returns, summed over every span called name, its duration
// minus the union of its children's intervals. Shards and chunk workers
// run in parallel, so summing children would subtract too much.
func (tr *tracer) selfTime(name string) time.Duration {
	type iv struct{ s, e int64 }
	parents := map[int64]iv{}
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.name == name {
			parents[sp.id] = iv{sp.start, sp.end}
		}
	}
	kids := map[int64][]iv{}
	for i := range tr.spans {
		sp := &tr.spans[i]
		if p, ok := parents[sp.parent]; ok && sp.parent != 0 {
			// Clip to the parent: a child is charged only while the parent ran.
			if s, e := max(sp.start, p.s), min(sp.end, p.e); e > s {
				kids[sp.parent] = append(kids[sp.parent], iv{s, e})
			}
		}
	}
	var self int64
	for id, p := range parents {
		self += p.e - p.s
		ks := kids[id]
		sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
		covered := p.s
		for _, k := range ks {
			if k.e <= covered {
				continue
			}
			self -= k.e - max(k.s, covered)
			covered = k.e
		}
	}
	return time.Duration(self)
}

// dump writes the spans as JSON lines.
func (tr *tracer) dump(workload string) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	dir = filepath.Join(dir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range tr.spans {
		sp := &tr.spans[i]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.id, sp.parent, sp.op, sp.name, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
