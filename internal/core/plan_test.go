package core

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/table"
	"privid/internal/video"
)

// countedEngine is newTestEngine's deployment with its "counter"
// executable counting every sandbox execution into runs.
func countedEngine(t *testing.T, opts Options, eps float64, runs *atomic.Int64) *Engine {
	t.Helper()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  &video.SceneSource{Camera: "camA", Scene: countScene(200)},
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: eps,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", func(c *video.Chunk) []table.Row {
		runs.Add(1)
		return countNewEntrants(c)
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// touchedNothing fails unless e executed no chunk and asked its chunk
// cache nothing, in either tier.
func touchedNothing(t *testing.T, e *Engine, runs *atomic.Int64) {
	t.Helper()
	cs, ps := e.CacheStats(), e.PartialStats()
	if n := runs.Load(); n != 0 {
		t.Errorf("%d sandbox executions, want none", n)
	}
	if cs.Hits+cs.Misses+cs.Puts+ps.StateHits+ps.StateMisses+ps.StatePuts != 0 {
		t.Errorf("chunk cache touched: %+v, partial states %+v", cs, ps)
	}
}

// A budget-denied query is denied before any chunk is touched
// (Algorithm 1 admits first): no sandbox execution, no chunk-cache
// lookup or put. It fails with the ledger's denial and audits it exactly
// as when admission came last. A statically rejected statement still
// takes precedence over the denial, and is not audited.
func TestDeniedQueryRunsNothing(t *testing.T) {
	var runs atomic.Int64
	at := time.Date(2021, 3, 16, 0, 0, 0, 0, time.UTC)
	e := countedEngine(t, Options{Seed: 1, Now: func() time.Time { return at }}, 0.05, &runs)
	prog, err := query.Parse(countQuery + `
SELECT COUNT(*) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(prog)
	const denial = "dp: budget exhausted on camera camA at frame -250 (remaining 0.05, requested 1.2)"
	if err == nil || err.Error() != denial {
		t.Fatalf("error %v, want %q", err, denial)
	}
	touchedNothing(t, e, &runs)
	want := []AuditEntry{{At: at, Cameras: []string{"camA"}, Denied: true, Reason: denial}}
	if got := e.AuditLog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("audit %+v, want %+v", got, want)
	}

	static, err := query.Parse(countQuery + `
SELECT SUM(one) FROM t CONSUMING 0.2;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(static); err == nil || !strings.Contains(err.Error(), "range constraint") {
		t.Fatalf("error %v, want the static rejection", err)
	}
	touchedNothing(t, e, &runs)
	if got := e.AuditLog(); len(got) != 1 {
		t.Fatalf("a static rejection was audited: %+v", got)
	}
}

// nothingDueWAL is the WAL a fresh state directory holds after one
// standing-query Advance with nothing due: the file magic, then one
// audit record with no cameras, no releases and no ε (recorded when
// admission still followed execution).
const nothingDueWAL = "50524956494457414c310a23000000208b55fc7b2261223a7b226174223a22323032312d30332d31365430303a30303a30305a227d7d"

// A standing query whose keep filter leaves no release due runs
// nothing: no sandbox execution, no chunk-cache lookup. The Advance
// still commits and audits what a zero-release Advance always did.
func TestStandingAdvanceNothingDueRunsNothing(t *testing.T) {
	var runs atomic.Int64
	dir := t.TempDir()
	at := time.Date(2021, 3, 16, 0, 0, 0, 0, time.UTC)
	e := countedEngine(t, Options{Seed: 1, StateDir: dir, Now: func() time.Time { return at }}, 10, &runs)
	defer e.Close()
	prog, err := query.Parse(standingQuery)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := e.Standing(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sq.Advance(time.Date(2021, 3, 15, 6, 30, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 0 || res.EpsilonSpent != 0 || len(res.Cameras) != 0 {
		t.Fatalf("nothing due, yet released %+v", res)
	}
	touchedNothing(t, e, &runs)
	if got, want := e.AuditLog(), []AuditEntry{{At: at, Cameras: []string{}}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("audit %+v, want %+v", got, want)
	}
	wal, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wal) != 1 {
		t.Fatalf("WAL files %v (%v), want one", wal, err)
	}
	b, err := os.ReadFile(wal[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != nothingDueWAL {
		t.Fatalf("WAL\n got %s\nwant %s", got, nothingDueWAL)
	}
}
