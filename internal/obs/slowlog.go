package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowEntry is one structured slow-query log record. Like every other
// observability artifact it carries identifiers, durations and ε
// amounts only — the query text is included (the analyst already chose
// to submit it and the audit log retains it), but never result values.
type SlowEntry struct {
	At       time.Time     `json:"at"`
	JobID    string        `json:"job_id"`
	Analyst  string        `json:"analyst"`
	Query    string        `json:"query"`
	State    string        `json:"state"` // done or failed
	Error    string        `json:"error,omitempty"`
	Duration time.Duration `json:"duration_ns"`
	// QueueWait is how long the job sat queued before a worker picked
	// it up — it separates "the query is slow" from "the pool is busy".
	QueueWait time.Duration `json:"queue_wait_ns"`
	// EpsilonSpent is the budget the query consumed (0 when denied).
	EpsilonSpent float64 `json:"epsilon_spent"`
	// Stages is the per-stage duration breakdown from the query's
	// trace, in nanoseconds keyed by stage name.
	Stages map[string]int64 `json:"stages_ns,omitempty"`
}

// SlowLog writes JSON-line slow-query entries to a writer once a job's
// execution exceeds a threshold. It is safe for concurrent use and all
// methods are safe on a nil receiver, so an unconfigured log costs one
// nil check.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	entries   uint64
}

// NewSlowLog returns a log writing entries for executions at or above
// threshold. A nil writer or non-positive threshold disables the log
// (returns nil).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Entries returns how many entries have been written (0 on nil).
func (l *SlowLog) Entries() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries
}

// Record writes the entry if its Duration meets the threshold. Encode
// or write errors are swallowed: the slow-query log is diagnostic and
// must never fail a query that already succeeded.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil || e.Duration < l.threshold {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(b); err == nil {
		l.entries++
	}
}

// Sync flushes the underlying writer if it supports Sync (os.File) or
// Flush (bufio.Writer); called on graceful shutdown so the tail of the
// log survives exit.
func (l *SlowLog) Sync() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch w := l.w.(type) {
	case interface{ Sync() error }:
		return w.Sync()
	case interface{ Flush() error }:
		return w.Flush()
	}
	return nil
}
