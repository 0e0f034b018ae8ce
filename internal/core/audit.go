package core

import (
	"fmt"
	"strings"
	"time"
)

// AuditEntry records one query execution attempt. The audit log is the
// video owner's accountability record: it shows exactly how much
// budget each analyst interaction consumed (or why it was denied)
// without revealing anything about the video content beyond what the
// releases themselves already did. Its json tags are the wire names of
// the serving layer's audit endpoint.
type AuditEntry struct {
	// At is when the engine finished handling the query.
	At time.Time `json:"at"`
	// Cameras lists the cameras the query touched.
	Cameras []string `json:"cameras"`
	// Releases is the number of data releases produced (0 on denial).
	Releases int `json:"releases"`
	// EpsilonSpent is the total budget consumed (0 on denial).
	EpsilonSpent float64 `json:"epsilon_spent"`
	// Denied reports whether admission failed.
	Denied bool `json:"denied,omitempty"`
	// Reason holds the denial reason (empty on success).
	Reason string `json:"reason,omitempty"`
}

// String renders the entry as a log line.
func (a AuditEntry) String() string {
	status := fmt.Sprintf("ok: %d releases, eps=%.4g", a.Releases, a.EpsilonSpent)
	if a.Denied {
		status = "DENIED: " + a.Reason
	}
	return fmt.Sprintf("%s cameras=[%s] %s",
		a.At.Format(time.RFC3339), strings.Join(a.Cameras, ","), status)
}

// maxAudit bounds the audit log to its newest entries, as the durable
// store's default retention does (a variable so tests can lower it).
var maxAudit = 10000

// AuditLog returns a copy of the engine's newest audit entries (at
// most maxAudit) in execution order.
func (e *Engine) AuditLog() []AuditEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]AuditEntry{}, e.audit[max(0, len(e.audit)-maxAudit):]...)
}

// recordAudit appends an entry, stamping At when the caller has not
// already (so the in-memory entry matches its durable WAL twin). As in
// store.appendBounded, the log grows to 2×maxAudit, then is cut back to
// the newest maxAudit in one move. Caller holds e.mu.
func (e *Engine) recordAudit(entry AuditEntry) {
	if entry.At.IsZero() {
		entry.At = e.clock()
	}
	e.audit = append(e.audit, entry)
	if len(e.audit) >= 2*maxAudit {
		n := copy(e.audit, e.audit[len(e.audit)-maxAudit:])
		clear(e.audit[n:])
		e.audit = e.audit[:n]
	}
}

// clock returns the current time; tests may override it via Options.
func (e *Engine) clock() time.Time {
	if e.opts.Now != nil {
		return e.opts.Now()
	}
	return time.Now()
}
