// Package store is Privid's durability layer: a write-ahead log with
// periodic snapshot/compaction that persists the privacy ledger's
// charges, the owner's audit log, and terminal scheduler jobs, so a
// server restart cannot refill any camera's privacy budget.
//
// The contract that makes the privacy guarantee survive crashes is
// charge-before-release: a charge record is appended to the WAL and
// fsynced *before* the corresponding noised result is handed to the
// analyst. A crash can therefore lose a result the analyst never saw
// (the charge is still on disk — charged-at-least-once), but can never
// lose a charge behind a result the analyst did see. Recovery replays
// the last snapshot plus the WAL tail, so the recovered remaining
// budget of every frame is never larger than what the pre-crash
// process would have reported.
//
// Layout of a state directory:
//
//	snapshot.json   last snapshot (atomic rename); names the WAL
//	                generation it precedes
//	wal-<gen>.log   active write-ahead log: magic header, then
//	                length+CRC32-framed JSON records
//
// Snapshotting rolls the WAL to a new generation file first, then
// renames the snapshot into place, then deletes the old generation, so
// a crash anywhere in between recovers exactly one consistent view.
package store

import (
	"encoding/json"
	"sort"
	"time"

	"privid/internal/intervalmap"
)

// ChargeRecord is one durable ledger charge: the camera, the frame
// interval, the ε debited over it, and a hash of the query that caused
// it (for forensics). It is fsynced before the noised result is
// released.
type ChargeRecord struct {
	Camera string  `json:"cam"`
	Start  int64   `json:"s"`
	End    int64   `json:"e"`
	Eps    float64 `json:"eps"`
	Query  string  `json:"q,omitempty"`
}

// AuditRecord mirrors one entry of the owner's audit log.
type AuditRecord struct {
	At           time.Time `json:"at"`
	Cameras      []string  `json:"cams,omitempty"`
	Releases     int       `json:"rel,omitempty"`
	EpsilonSpent float64   `json:"eps,omitempty"`
	Denied       bool      `json:"denied,omitempty"`
	Reason       string    `json:"reason,omitempty"`
}

// JobRecord is one terminal (done/failed) scheduler job, persisted so
// an analyst polling after a server restart still gets their result.
// Result is the JSON encoding of the engine's result (opaque to the
// store).
type JobRecord struct {
	ID          string          `json:"id"`
	Analyst     string          `json:"analyst"`
	Query       string          `json:"query"`
	State       string          `json:"state"` // "done" or "failed"
	Error       string          `json:"error,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Result      json.RawMessage `json:"result,omitempty"`
	// Trace is the JSON span tree of the job's execution (obs.SpanTree;
	// opaque to the store), persisted so GET /v1/queries/{id}/trace
	// resolves for terminal jobs across server restarts.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Record is one WAL entry. Exactly one field is non-nil.
type Record struct {
	Charge *ChargeRecord `json:"c,omitempty"`
	Audit  *AuditRecord  `json:"a,omitempty"`
	Job    *JobRecord    `json:"j,omitempty"`
}

// Store persists engine state. Implementations are safe for concurrent
// use.
type Store interface {
	// Commit durably appends records as one unit, returning only once
	// they are persisted (for the WAL store: after fsync). An error
	// means the records may not have been persisted and nothing may be
	// released to an analyst on their strength.
	Commit(recs ...Record) error
	// Close flushes and closes the store.
	Close() error
}

// NullStore is the no-durability store: commits succeed instantly and
// vanish with the process. It preserves the engine's pre-durability
// in-memory behavior for library use and tests without a state dir.
type NullStore struct{}

// Commit implements Store as a no-op.
func (NullStore) Commit(...Record) error { return nil }

// Close implements Store as a no-op.
func (NullStore) Close() error { return nil }

// Segment is one piece of a camera's piecewise-constant spent-budget
// function, as persisted in snapshots: eps is the absolute spent value
// over [Start, End).
type Segment struct {
	Start int64   `json:"s"`
	End   int64   `json:"e"`
	Eps   float64 `json:"eps"`
}

// State is the aggregate durable state: per-camera spent budget, the
// audit log, and retained terminal jobs. It is what a snapshot holds
// and what recovery rebuilds from snapshot + WAL replay.
type State struct {
	spent map[string]*intervalmap.Map
	// audit and jobs hold at least the retained records; only the last
	// maxAudit/maxJobs of them are state (see retained).
	audit   []AuditRecord
	jobs    []JobRecord
	charges int64 // charge records applied since the last snapshot base
	// maxJobs and maxAudit bound the retained terminal jobs and audit
	// entries (oldest dropped); <= 0 keeps all. Spent budget is never
	// bounded — it IS the guarantee.
	maxJobs, maxAudit int
}

// NewState returns an empty state that retains everything.
func NewState() *State {
	return &State{spent: map[string]*intervalmap.Map{}}
}

// apply folds one record into the state.
func (s *State) apply(rec Record) {
	switch {
	case rec.Charge != nil:
		c := rec.Charge
		m := s.spent[c.Camera]
		if m == nil {
			m = &intervalmap.Map{}
			s.spent[c.Camera] = m
		}
		m.AddRange(c.Start, c.End, c.Eps)
		s.charges++
	case rec.Audit != nil:
		s.audit = appendBounded(s.audit, *rec.Audit, s.maxAudit)
	case rec.Job != nil:
		s.jobs = appendBounded(s.jobs, *rec.Job, s.maxJobs)
	}
}

// appendBounded appends rec to a log of which the last max entries are
// retained. Dropping the oldest entry on every append would move the
// whole log per commit once it is full — O(max) on the commit path —
// so the log is left to grow to 2×max and trimmed back to max in one
// move: O(1) amortised. Readers go through retained.
func appendBounded[T any](log []T, rec T, max int) []T {
	log = append(log, rec)
	if max > 0 && len(log) >= 2*max {
		n := copy(log, log[len(log)-max:])
		clear(log[n:])
		log = log[:n]
	}
	return log
}

// retained returns the last max entries of log, in commit order.
func retained[T any](log []T, max int) []T {
	if max > 0 && len(log) > max {
		return log[len(log)-max:]
	}
	return log
}

// Cameras lists the cameras with recovered spent budget, sorted.
func (s *State) Cameras() []string {
	out := make([]string, 0, len(s.spent))
	for name := range s.spent {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SpentSegments returns the camera's spent-budget function as
// non-overlapping segments with absolute values (empty when the camera
// has no recorded charges). Adding each segment into a fresh ledger
// reproduces the function exactly.
func (s *State) SpentSegments(camera string) []Segment {
	m := s.spent[camera]
	if m == nil {
		return nil
	}
	return segmentsOf(m)
}

// Spent returns the spent value at one frame of one camera.
func (s *State) Spent(camera string, frame int64) float64 {
	m := s.spent[camera]
	if m == nil {
		return 0
	}
	return m.Get(frame)
}

// Audit returns the recovered audit entries in commit order.
func (s *State) Audit() []AuditRecord {
	return append([]AuditRecord(nil), retained(s.audit, s.maxAudit)...)
}

// Jobs returns the retained terminal jobs in commit order.
func (s *State) Jobs() []JobRecord {
	return append([]JobRecord(nil), retained(s.jobs, s.maxJobs)...)
}

// Charges returns the number of charge records folded into the state
// since its snapshot base.
func (s *State) Charges() int64 { return s.charges }

// segmentsOf exports a map's non-zero maximal segments. Spent-budget
// maps are zero outside the union of charged intervals, so the
// piecewise function is fully described by bounded segments.
func segmentsOf(m *intervalmap.Map) []Segment {
	if m.Breakpoints() == 0 {
		return nil
	}
	var out []Segment
	lo, hi := m.Bounds()
	m.Segments(lo, hi, func(s, e int64, v float64) {
		if v != 0 {
			out = append(out, Segment{Start: s, End: e, Eps: v})
		}
	})
	return out
}
