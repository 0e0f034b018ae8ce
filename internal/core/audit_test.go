package core

import (
	"strings"
	"testing"
	"time"

	"privid/internal/policy"
	"privid/internal/query"
)

func TestAuditLog(t *testing.T) {
	s := countScene(10)
	fixed := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	e := New(Options{Seed: 1, Now: func() time.Time { return fixed }})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  s.Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1.5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(prog); err != nil {
		t.Fatal(err)
	}
	// Second query exceeds the 1.5 budget (each consumes 1.0).
	if _, err := e.Execute(prog); err == nil {
		t.Fatal("second query should be denied")
	}
	log := e.AuditLog()
	if len(log) != 2 {
		t.Fatalf("%d audit entries, want 2", len(log))
	}
	ok, denied := log[0], log[1]
	if ok.Denied || ok.Releases != 1 || ok.EpsilonSpent != 1 {
		t.Errorf("success entry: %+v", ok)
	}
	if !denied.Denied || denied.EpsilonSpent != 0 || denied.Reason == "" {
		t.Errorf("denial entry: %+v", denied)
	}
	if len(ok.Cameras) != 1 || ok.Cameras[0] != "camA" {
		t.Errorf("cameras: %v", ok.Cameras)
	}
	if !ok.At.Equal(fixed) {
		t.Errorf("timestamp: %v", ok.At)
	}
	// Log lines render both outcomes.
	if !strings.Contains(ok.String(), "ok: 1 releases") {
		t.Errorf("success line: %s", ok.String())
	}
	if !strings.Contains(denied.String(), "DENIED") {
		t.Errorf("denial line: %s", denied.String())
	}
	// The returned slice is a copy.
	log[0].Releases = 999
	if e.AuditLog()[0].Releases == 999 {
		t.Errorf("AuditLog leaked internal state")
	}
}

// TestAuditLogBounded: however many executions the engine has seen —
// before, at and past the points where the backing log is cut back from
// 2×maxAudit — AuditLog holds exactly the newest maxAudit entries, in
// execution order.
func TestAuditLogBounded(t *testing.T) {
	defer func(old int) { maxAudit = old }(maxAudit)
	maxAudit = 3
	tick := time.Date(2026, 6, 13, 12, 0, 0, 0, time.UTC)
	e := New(Options{Seed: 1, Now: func() time.Time { tick = tick.Add(time.Second); return tick }})
	if err := e.RegisterCamera(CameraConfig{
		Name:    "camA",
		Source:  countScene(10).Source("camA"),
		Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
		Epsilon: 1.5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Register("counter", countNewEntrants); err != nil {
		t.Fatal(err)
	}
	prog, err := query.Parse(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	var all []AuditEntry // every entry ever recorded, oldest first
	for i := 0; i < 4*maxAudit+1; i++ {
		_, _ = e.Execute(prog) // the first is admitted, the rest denied
		log := e.AuditLog()
		all = append(all, log[len(log)-1])
		want := all[max(0, len(all)-maxAudit):]
		if len(log) != len(want) {
			t.Fatalf("after %d executions: %d entries, want %d", len(all), len(log), len(want))
		}
		for k := range want {
			if !log[k].At.Equal(want[k].At) || log[k].Denied != want[k].Denied {
				t.Fatalf("after %d executions: entry %d = %v, want %v", len(all), k, log[k], want[k])
			}
		}
	}
}
