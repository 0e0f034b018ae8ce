package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// ErrClosed is returned by Commit on a closed WAL.
var ErrClosed = errors.New("store: WAL closed")

// File is the WAL's storage handle — the subset of *os.File the log
// needs. Tests substitute faulty implementations (partial writes,
// failing fsyncs) to simulate crashes mid-commit.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options configure a WAL store.
type Options struct {
	// GroupCommit batches concurrent Commit calls into shared fsyncs:
	// a dedicated committer goroutine drains all pending batches,
	// appends them with one write and one fsync, and wakes every
	// waiter. Latency per commit is unchanged (one fsync away) but
	// throughput under N concurrent committers approaches N commits
	// per fsync. Off, every Commit pays its own fsync.
	GroupCommit bool
	// SnapshotEvery compacts the log automatically after this many
	// records since the last snapshot: the aggregate state is written
	// to snapshot.json and the WAL rolls to a new generation. 0 uses
	// 4096; negative disables automatic snapshots (Close still takes a
	// final one).
	SnapshotEvery int
	// MaxJobs bounds terminal job records retained in state and
	// snapshots (oldest dropped). 0 uses 1000.
	MaxJobs int
	// MaxAudit bounds audit entries retained in state and snapshots
	// (oldest dropped), so snapshots and recovery stay O(retention),
	// not O(lifetime queries). Spent budget is never bounded. 0 uses
	// 10000.
	MaxAudit int
	// WrapFile wraps the WAL file handle after open (fault injection
	// in tests). Nil uses the file directly.
	WrapFile func(File) File
	// Metrics holds optional append/fsync/batch instruments (see
	// Metrics); the zero value disables instrumentation.
	Metrics Metrics
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.MaxJobs == 0 {
		o.MaxJobs = 1000
	}
	if o.MaxAudit == 0 {
		o.MaxAudit = 10000
	}
	return o
}

// snapshotFile is the on-disk snapshot format.
type snapshotFile struct {
	Version int                  `json:"version"`
	Gen     int64                `json:"gen"` // WAL generation the snapshot precedes
	TakenAt time.Time            `json:"taken_at"`
	Spent   map[string][]Segment `json:"spent"`
	Audit   []AuditRecord        `json:"audit,omitempty"`
	Jobs    []JobRecord          `json:"jobs,omitempty"`
}

const snapshotName = "snapshot.json"

func walName(gen int64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// commitReq is one Commit call waiting for the group committer.
type commitReq struct {
	buf  []byte
	recs []Record
	done chan error
}

// WAL is the durable store: an append-only, CRC-framed, fsynced log
// with periodic snapshot/compaction. It implements Store and is safe
// for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        File
	gen      int64
	size     int64 // bytes of valid log (header + acked records)
	state    *State
	closing  bool
	fileOpen bool
	poisoned error // set after an unrecoverable I/O failure

	recsSinceSnap int64
	snapshots     int64
	lastSnapshot  time.Time
	lastSnapErr   error

	// Group commit plumbing.
	reqCh    chan *commitReq
	inflight sync.WaitGroup // Commit calls between admission and send
	loopDone sync.WaitGroup
}

// Open opens (creating if needed) the durable store in dir and
// recovers its state: the last snapshot, if any, plus a replay of the
// active WAL generation. A torn or corrupt log refuses to open with a
// *CorruptError (wrapped); Repair truncates it to the last valid
// record.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	state, gen, size, replayed, err := loadState(dir, opts.MaxJobs, opts.MaxAudit)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, walName(gen))
	if size == 0 {
		// No log yet for this generation: create it with the header.
		if err := writeFileSync(path, []byte(walMagic)); err != nil {
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
		size = int64(len(walMagic))
	}
	// Stale generations (from a crash mid-snapshot) are dead weight:
	// either superseded (older) or never referenced (newer).
	if stale, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); stale != nil {
		for _, p := range stale {
			if p != path {
				os.Remove(p)
			}
		}
	}
	osf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var f File = osf
	if opts.WrapFile != nil {
		f = opts.WrapFile(f)
	}
	w := &WAL{
		dir: dir, opts: opts,
		f: f, gen: gen, size: size,
		state: state, fileOpen: true,
		// Replayed records — of every type, not just charges — count
		// against the next auto-snapshot so a crash-loop cannot grow
		// the log without bound.
		recsSinceSnap: replayed,
	}
	if opts.GroupCommit {
		w.reqCh = make(chan *commitReq, 256)
		w.loopDone.Add(1)
		go w.commitLoop()
	}
	return w, nil
}

// loadState loads dir's durable state: snapshot (if present) plus a
// full replay of the active WAL generation. It returns the state, the
// active generation, the WAL's byte size (0 when the file does not
// exist yet), and the number of records replayed from the WAL.
func loadState(dir string, maxJobs, maxAudit int) (*State, int64, int64, int64, error) {
	state := NewState()
	state.maxJobs, state.maxAudit = maxJobs, maxAudit
	var gen int64
	snapPath := filepath.Join(dir, snapshotName)
	if b, err := os.ReadFile(snapPath); err == nil {
		var sf snapshotFile
		if err := json.Unmarshal(b, &sf); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: corrupt snapshot %s: %w", snapPath, err)
		}
		gen = sf.Gen
		for cam, segs := range sf.Spent {
			for _, seg := range segs {
				state.apply(Record{Charge: &ChargeRecord{
					Camera: cam, Start: seg.Start, End: seg.End, Eps: seg.Eps,
				}})
			}
		}
		state.charges = 0 // snapshot segments are the base, not new records
		state.audit = append(state.audit, sf.Audit...)
		state.jobs = append(state.jobs, sf.Jobs...)
	} else if !os.IsNotExist(err) {
		return nil, 0, 0, 0, fmt.Errorf("store: %w", err)
	}

	path := filepath.Join(dir, walName(gen))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return state, gen, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("store: %w", err)
	}
	recs, off, derr := DecodeAll(data)
	if derr != nil {
		var ce *CorruptError
		if errors.As(derr, &ce) {
			ce.Path = path
		}
		return nil, 0, 0, 0, derr
	}
	for _, rec := range recs {
		state.apply(rec)
	}
	return state, gen, off, int64(len(recs)), nil
}

// ReadState loads the durable state of dir (snapshot + WAL replay)
// without opening it for writing — for inspection and tests. maxJobs
// as in Options; 0 uses the default.
func ReadState(dir string, maxJobs int) (*State, error) {
	if maxJobs == 0 {
		maxJobs = 1000
	}
	state, _, _, _, err := loadState(dir, maxJobs, 10000)
	return state, err
}

// Repair truncates dir's active WAL to its last valid record,
// discarding a torn or corrupt tail, and returns the number of bytes
// dropped. A WAL that decodes cleanly is left untouched.
func Repair(dir string) (dropped int64, err error) {
	gen := int64(0)
	if b, rerr := os.ReadFile(filepath.Join(dir, snapshotName)); rerr == nil {
		var sf snapshotFile
		if jerr := json.Unmarshal(b, &sf); jerr == nil {
			gen = sf.Gen
		}
	}
	path := filepath.Join(dir, walName(gen))
	data, rerr := os.ReadFile(path)
	if os.IsNotExist(rerr) {
		return 0, nil
	}
	if rerr != nil {
		return 0, fmt.Errorf("store: %w", rerr)
	}
	_, off, derr := DecodeAll(data)
	if derr == nil {
		return 0, nil
	}
	if off < int64(len(walMagic)) {
		// Even the header is bad: reset to an empty log.
		if err := writeFileSync(path, []byte(walMagic)); err != nil {
			return 0, err
		}
		return int64(len(data)) - int64(len(walMagic)), nil
	}
	if err := os.Truncate(path, off); err != nil {
		return 0, fmt.Errorf("store: repair truncate: %w", err)
	}
	if f, ferr := os.OpenFile(path, os.O_WRONLY, 0); ferr == nil {
		f.Sync()
		f.Close()
	}
	return int64(len(data)) - off, nil
}

// Commit implements Store: it durably appends records as one unit and
// returns once they are fsynced. With GroupCommit, concurrent commits
// share write+fsync batches.
func (w *WAL) Commit(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	if w.reqCh == nil {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.closing {
			return ErrClosed
		}
		return w.appendLocked(buf, recs)
	}
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		return ErrClosed
	}
	w.inflight.Add(1)
	w.mu.Unlock()
	req := &commitReq{buf: buf, recs: recs, done: make(chan error, 1)}
	w.reqCh <- req
	w.inflight.Done()
	return <-req.done
}

// maxGroupBatch bounds records merged into one group-commit write so a
// burst cannot build an unboundedly large buffer.
const maxGroupBatch = 512

// maxBatchYields bounds how many scheduler yields the committer spends
// waiting for follower commits before fsyncing a batch.
const maxBatchYields = 4

// commitLoop is the group committer: it drains every pending commit,
// appends them with one write and one fsync, and wakes all waiters.
func (w *WAL) commitLoop() {
	defer w.loopDone.Done()
	for req := range w.reqCh {
		batch := []*commitReq{req}
		buf := req.buf
		n := len(req.recs)
		// Collect followers. Concurrent committers woken by the
		// previous batch's ack need a few scheduler quanta to
		// re-enqueue, so an empty channel doesn't end the batch
		// immediately: yield a bounded number of times first. The
		// yields cost ~a microsecond against the fsync's hundreds,
		// and turn lockstep submitters into full batches.
		yields := 0
	drain:
		for n < maxGroupBatch {
			select {
			case more, ok := <-w.reqCh:
				if !ok {
					break drain
				}
				batch = append(batch, more)
				buf = append(buf, more.buf...)
				n += len(more.recs)
				yields = 0
			default:
				if yields >= maxBatchYields {
					break drain
				}
				yields++
				runtime.Gosched()
			}
		}
		var recs []Record
		if len(batch) == 1 {
			recs = req.recs
		} else {
			recs = make([]Record, 0, n)
			for _, b := range batch {
				recs = append(recs, b.recs...)
			}
		}
		w.mu.Lock()
		err := w.appendLocked(buf, recs)
		w.mu.Unlock()
		for _, b := range batch {
			b.done <- err
		}
	}
}

// appendLocked writes one framed buffer, fsyncs it, and folds the
// records into the mirror state. On a failed or short write it rolls
// the file back to the last acked offset so later commits cannot
// interleave with a torn record. Caller holds w.mu.
func (w *WAL) appendLocked(buf []byte, recs []Record) error {
	if !w.fileOpen {
		return ErrClosed
	}
	if w.poisoned != nil {
		return w.poisoned
	}
	start := time.Now()
	n, err := w.f.Write(buf)
	if err != nil || n < len(buf) {
		if terr := w.f.Truncate(w.size); terr != nil {
			w.poisoned = fmt.Errorf("store: WAL unusable after torn append (truncate failed: %v)", terr)
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		// After a failed fsync the kernel may have dropped the dirty
		// pages without writing them; the log's on-disk tail is
		// unknowable. Refuse further commits — recovery on the next
		// open resolves what actually made it to disk.
		w.poisoned = fmt.Errorf("store: wal fsync failed, store disabled: %w", err)
		return w.poisoned
	}
	now := time.Now()
	w.opts.Metrics.FsyncSeconds.Observe(now.Sub(syncStart).Seconds())
	w.opts.Metrics.AppendSeconds.Observe(now.Sub(start).Seconds())
	w.opts.Metrics.CommitRecords.Observe(float64(len(recs)))
	w.size += int64(len(buf))
	for _, rec := range recs {
		w.state.apply(rec)
	}
	w.recsSinceSnap += int64(len(recs))
	if w.opts.SnapshotEvery > 0 && w.recsSinceSnap >= int64(w.opts.SnapshotEvery) {
		// The commit is already durable; a failed compaction must not
		// fail it. Remember the error for Info and retry next time.
		w.lastSnapErr = w.snapshotLocked()
	}
	return nil
}

// Snapshot writes the aggregate state to snapshot.json and rolls the
// WAL to a fresh generation (compaction): per-camera spent budget
// collapses to its piecewise segments no matter how many charges
// produced it.
func (w *WAL) Snapshot() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.fileOpen {
		return ErrClosed
	}
	return w.snapshotLocked()
}

// snapshotLocked implements Snapshot. Caller holds w.mu. Ordering, for
// crash safety: (1) create the next generation's empty WAL, (2) fsync
// the snapshot naming that generation into place, (3) switch handles
// and delete the old generation. A crash after (1) recovers from the
// old snapshot + old WAL (the stray file is removed on open); a crash
// after (2) recovers from the new snapshot + empty new WAL.
func (w *WAL) snapshotLocked() error {
	newGen := w.gen + 1
	newPath := filepath.Join(w.dir, walName(newGen))
	if err := writeFileSync(newPath, []byte(walMagic)); err != nil {
		return err
	}
	sf := snapshotFile{
		Version: 1,
		Gen:     newGen,
		TakenAt: time.Now(),
		Spent:   map[string][]Segment{},
		Audit:   retained(w.state.audit, w.state.maxAudit),
		Jobs:    retained(w.state.jobs, w.state.maxJobs),
	}
	for cam, m := range w.state.spent {
		if segs := segmentsOf(m); len(segs) > 0 {
			sf.Spent[cam] = segs
		}
	}
	b, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	tmp := filepath.Join(w.dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, b); err != nil {
		os.Remove(newPath)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		os.Remove(newPath)
		return fmt.Errorf("store: %w", err)
	}
	// Past the rename there is no going back: recovery may already
	// resolve to the new generation, so any failure to finish the
	// switch must poison the store — acking further commits into the
	// old generation would silently lose them on the next open.
	if err := syncDir(w.dir); err != nil {
		w.poisoned = fmt.Errorf("store: WAL disabled, snapshot switch incomplete: %w", err)
		return w.poisoned
	}
	// The snapshot is durable: switch to the new generation.
	oldPath := filepath.Join(w.dir, walName(w.gen))
	w.f.Close()
	osf, err := os.OpenFile(newPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.fileOpen = false
		return fmt.Errorf("store: reopen after snapshot: %w", err)
	}
	var f File = osf
	if w.opts.WrapFile != nil {
		f = w.opts.WrapFile(f)
	}
	w.f = f
	w.gen = newGen
	w.size = int64(len(walMagic))
	w.state.charges = 0
	w.recsSinceSnap = 0
	w.poisoned = nil
	os.Remove(oldPath)
	w.snapshots++
	w.lastSnapshot = sf.TakenAt
	w.lastSnapErr = nil
	return nil
}

// Close drains in-flight commits, takes a final snapshot (graceful-
// shutdown compaction, so the next open recovers instantly), and
// closes the log. Commits submitted after Close starts fail with
// ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		w.loopDone.Wait()
		return nil
	}
	w.closing = true
	w.mu.Unlock()
	if w.reqCh != nil {
		w.inflight.Wait() // every admitted Commit has sent its request
		close(w.reqCh)
		w.loopDone.Wait() // committer drained and acked everything
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.fileOpen && w.poisoned == nil {
		err = w.snapshotLocked()
	}
	if w.fileOpen {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.fileOpen = false
	}
	return err
}

// Info is a point-in-time description of the store, for the server's
// state-inspection endpoint.
type Info struct {
	Dir                  string
	Gen                  int64
	WALBytes             int64
	RecordsSinceSnapshot int64
	Snapshots            int64
	LastSnapshot         time.Time
	LastSnapshotError    string
	Cameras              int
	Jobs                 int
	AuditEntries         int
}

// Info returns a snapshot of the store's status.
func (w *WAL) Info() Info {
	w.mu.Lock()
	defer w.mu.Unlock()
	info := Info{
		Dir:                  w.dir,
		Gen:                  w.gen,
		WALBytes:             w.size,
		RecordsSinceSnapshot: w.recsSinceSnap,
		Snapshots:            w.snapshots,
		LastSnapshot:         w.lastSnapshot,
		Cameras:              len(w.state.spent),
		Jobs:                 len(retained(w.state.jobs, w.state.maxJobs)),
		AuditEntries:         len(retained(w.state.audit, w.state.maxAudit)),
	}
	if w.lastSnapErr != nil {
		info.LastSnapshotError = w.lastSnapErr.Error()
	}
	return info
}

// SpentSegments returns a camera's recovered/accumulated spent-budget
// segments (see State.SpentSegments).
func (w *WAL) SpentSegments(camera string) []Segment {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.SpentSegments(camera)
}

// Cameras lists cameras with recorded charges.
func (w *WAL) Cameras() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Cameras()
}

// AuditEntries returns the recovered-and-since-committed audit log.
func (w *WAL) AuditEntries() []AuditRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Audit()
}

// Jobs returns the retained terminal job records.
func (w *WAL) Jobs() []JobRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Jobs()
}

// writeFileSync writes path atomically enough for our needs: full
// write then fsync. Callers needing atomic replacement write to a tmp
// name and rename.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
