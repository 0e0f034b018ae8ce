package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrClosed is returned by Commit on a closed WAL.
var ErrClosed = errors.New("store: WAL closed")

// ErrOutcomeUnknown marks a failed Commit whose records may be on disk
// all the same: its fsync failed and so did the rollback, so whether
// they recover is decided by the next Open.
var ErrOutcomeUnknown = errors.New("store: commit outcome unknown until restart")

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
	// Deprecated: GroupCommit is ignored. Every WAL groups concurrent
	// commits into shared writes and fsyncs (see Commit); the field
	// remains only so existing callers compile.
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

// writeSnapshot streams json.Marshal(snapshotFile{…})'s bytes to f with
// no whole-file buffer: retained entries go out as committed.
func (s *State) writeSnapshot(f io.Writer, gen int64, takenAt time.Time) error {
	bw := bufio.NewWriterSize(f, 64<<10)
	w := jsonw{b: make([]byte, 0, 1024)}
	w.int(`{"version":1,"gen":`, gen)
	w.time(`,"taken_at":`, takenAt)
	w.b = append(w.b, `,"spent":{`...)
	sep := ""
	for _, cam := range s.Cameras() { // json.Marshal's map-key order
		segs := segmentsOf(s.spent[cam])
		if len(segs) == 0 {
			continue
		}
		w.str(sep, cam)
		sep = ","
		key := `:[{"s":`
		for _, seg := range segs {
			w.segment(key, seg.Start, seg.End, seg.Eps)
			key = `},{"s":`
		}
		bw.Write(append(w.b, '}', ']'))
		w.b = w.b[:0]
	}
	bw.Write(append(w.b, '}'))
	writeEntries(bw, `,"audit":[`, retained(s.audit, s.maxAudit))
	writeEntries(bw, `,"jobs":[`, retained(s.jobs, s.maxJobs))
	bw.WriteByte('}')
	if w.err != nil {
		return fmt.Errorf("encode snapshot: %w", w.err)
	}
	return bw.Flush()
}

// writeEntries writes entries as the omitempty array field key.
func writeEntries(bw *bufio.Writer, key string, entries [][]byte) {
	for _, e := range entries {
		bw.WriteString(key)
		bw.Write(e)
		key = ","
	}
	if len(entries) > 0 {
		bw.WriteByte(']')
	}
}

// writeMagic fills a new WAL generation: the header alone.
func writeMagic(f io.Writer) error {
	_, err := io.WriteString(f, walMagic)
	return err
}

func walName(gen int64) string { return fmt.Sprintf("wal-%08d.log", gen) }

// commitReq is one Commit call: its encoded frames and records, and
// the outcome its batch's leader acks it with.
type commitReq struct {
	buf  []byte
	recs []Record
	err  error
	done bool
}

// WAL is the durable store: an append-only, CRC-framed, fsynced log
// with periodic snapshot/compaction. It implements Store and is safe
// for concurrent use.
type WAL struct {
	dir  string
	opts Options

	// Group commit. qmu guards the queue of commits not yet written;
	// committers wait on queued until a leader acks them or the write
	// in flight ends and one of them can lead the next batch. qmu is
	// never held while mu is taken.
	qmu     sync.Mutex
	queued  sync.Cond
	pending []*commitReq
	batch   []*commitReq // the leader's scratch
	leading bool         // a leader is writing a batch
	closing bool

	mu       sync.Mutex
	f        File
	gen      int64
	size     int64 // bytes of valid log (header + acked records)
	state    *State
	fileOpen bool
	poisoned error // set after an unrecoverable I/O failure

	recsSinceSnap int64
	snapshots     int64
	lastSnapshot  time.Time
	lastSnapErr   error
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
		if err := writeFileSync(path, writeMagic); err != nil {
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
	w.queued.L = &w.qmu
	return w, nil
}

// loadState loads dir's durable state: snapshot (if present) plus a
// full replay of the active WAL generation. It returns the state, the
// active generation, the WAL's byte size (0 when the file does not
// exist yet), and the number of records replayed from the WAL.
func loadState(dir string, maxJobs, maxAudit int) (*State, int64, int64, int64, error) {
	state := newState()
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
				}}, nil)
			}
		}
		for i := range sf.Audit {
			if err := state.replay(Record{Audit: &sf.Audit[i]}); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: corrupt snapshot %s: %w", snapPath, err)
			}
		}
		for i := range sf.Jobs {
			if err := state.replay(Record{Job: &sf.Jobs[i]}); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: corrupt snapshot %s: %w", snapPath, err)
			}
		}
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
		if err := state.replay(rec); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: replay %s: %w", path, err)
		}
	}
	return state, gen, off, int64(len(recs)), nil
}

// ReadState loads the durable state of dir (snapshot + WAL replay)
// without opening it for writing — for inspection and tests. maxJobs
// as in Options; 0 uses the default.
func ReadState(dir string, maxJobs int) (*State, error) {
	opts := Options{MaxJobs: maxJobs}.withDefaults()
	state, _, _, _, err := loadState(dir, opts.MaxJobs, opts.MaxAudit)
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
		if err := writeFileSync(path, writeMagic); err != nil {
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
// returns once they are fsynced. Concurrent commits share writes and
// fsyncs with no timer and no goroutine of their own: a commit that
// finds no write in flight leads, writing every pending commit as one
// batch; commits arriving meanwhile queue behind it and form the next
// batch, so the batch grows with the time the fsync takes.
func (w *WAL) Commit(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	req := &commitReq{buf: buf, recs: recs}
	w.qmu.Lock()
	defer w.qmu.Unlock()
	if w.closing {
		return ErrClosed
	}
	w.pending = append(w.pending, req)
	for !req.done {
		if w.leading {
			w.queued.Wait()
		} else {
			w.lead()
		}
	}
	return req.err
}

// maxGroupBatch bounds records merged into one group-commit write so a
// burst cannot build an unboundedly large buffer.
const maxGroupBatch = 512

// lead writes one batch: the oldest pending commits, up to
// maxGroupBatch records, appended with one write and one fsync. It acks
// every member with the outcome and wakes all waiters. Caller holds
// w.qmu, which lead releases for the write.
func (w *WAL) lead() {
	w.leading = true
	batch, n := w.batch[:0], 0
	for _, req := range w.pending {
		if n > 0 && n+len(req.recs) > maxGroupBatch {
			break
		}
		batch = append(batch, req)
		n += len(req.recs)
	}
	rest := copy(w.pending, w.pending[len(batch):])
	clear(w.pending[rest:])
	w.pending = w.pending[:rest]
	w.qmu.Unlock()

	buf := batch[0].buf
	for _, req := range batch[1:] {
		buf = append(buf, req.buf...) // past the first commit's frames: nothing else reads there
	}
	w.mu.Lock()
	err := w.appendLocked(buf, batch)
	w.mu.Unlock()

	w.qmu.Lock()
	for _, req := range batch {
		req.err, req.done = err, true
	}
	clear(batch)
	w.batch = batch[:0]
	w.leading = false
	w.queued.Broadcast()
}

// appendLocked writes one framed buffer (the batch's commits), fsyncs
// it, and folds the records into the mirror state. On a failed or short
// write it rolls the file back to the last acked offset so later commits
// cannot interleave with a torn record. Caller holds w.mu.
func (w *WAL) appendLocked(buf []byte, batch []*commitReq) error {
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
		// After a failed fsync the kernel may have written the dirty
		// pages or dropped them: the log's on-disk tail is unknowable.
		// Cut the batch off again and make the cut durable; only then
		// are its commits truly lost. Refuse further commits either way
		// — recovery on the next open resolves what made it to disk.
		w.poisoned = fmt.Errorf("store: wal fsync failed, store disabled: %w", err)
		if terr := w.f.Truncate(w.size); terr != nil {
			return fmt.Errorf("%w: %w (rollback failed: %v)", ErrOutcomeUnknown, w.poisoned, terr)
		}
		if serr := w.f.Sync(); serr != nil {
			return fmt.Errorf("%w: %w (rollback not synced: %v)", ErrOutcomeUnknown, w.poisoned, serr)
		}
		return w.poisoned
	}
	now := time.Now()
	w.opts.Metrics.FsyncSeconds.Observe(now.Sub(syncStart).Seconds())
	w.opts.Metrics.AppendSeconds.Observe(now.Sub(start).Seconds())
	w.size += int64(len(buf))
	recs := 0
	for _, req := range batch {
		// Each commit's own frames: entries pin only their commit's buffer.
		frames := req.buf
		for _, rec := range req.recs {
			end := frameHeaderLen + int(binary.LittleEndian.Uint32(frames))
			w.state.apply(rec, frames[frameHeaderLen:end])
			frames = frames[end:]
		}
		recs += len(req.recs)
	}
	w.opts.Metrics.CommitRecords.Observe(float64(recs))
	w.recsSinceSnap += int64(recs)
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
	if err := writeFileSync(newPath, writeMagic); err != nil {
		return err
	}
	takenAt := time.Now()
	tmp := filepath.Join(w.dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, func(f io.Writer) error {
		return w.state.writeSnapshot(f, newGen, takenAt)
	}); err != nil {
		os.Remove(tmp)
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
	w.recsSinceSnap = 0
	w.poisoned = nil
	os.Remove(oldPath)
	w.snapshots++
	w.lastSnapshot = takenAt
	w.lastSnapErr = nil
	return nil
}

// Close drains pending commits, takes a final snapshot (graceful-
// shutdown compaction, so the next open recovers instantly), and
// closes the log. Commits submitted after Close starts fail with
// ErrClosed.
func (w *WAL) Close() error {
	w.qmu.Lock()
	already := w.closing
	w.closing = true
	for w.leading || len(w.pending) > 0 {
		w.queued.Wait()
	}
	w.qmu.Unlock()
	if already {
		return nil
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

// Info is a point-in-time description of the store; its json tags are
// the server's state-inspection endpoint's wire names.
type Info struct {
	Dir                  string    `json:"dir,omitempty"`
	Gen                  int64     `json:"generation,omitempty"`             // advances on every compaction
	WALBytes             int64     `json:"wal_bytes,omitempty"`              // active generation's size
	RecordsSinceSnapshot int64     `json:"records_since_snapshot,omitempty"` // what the next compaction folds
	Snapshots            int64     `json:"snapshots,omitempty"`              // compactions by this process
	LastSnapshot         time.Time `json:"last_snapshot,omitzero"`           // newest compaction (zero: none yet)
	LastSnapshotError    string    `json:"last_snapshot_error,omitempty"`    // last auto-compaction failure; its commit still succeeded
	Cameras              int       `json:"cameras,omitempty"`                // cameras with persisted charges
	Jobs                 int       `json:"jobs,omitempty"`                   // retained durable job records
	AuditEntries         int       `json:"audit_entries,omitempty"`          // retained audit records
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

// writeFileSync writes path atomically enough for our needs: write
// fills the truncated file, then it is fsynced. Callers needing atomic
// replacement write to a tmp name and rename.
func writeFileSync(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := write(f); err != nil {
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
