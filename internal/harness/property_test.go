package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/dp"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/store"
	"privid/internal/table"
	"privid/internal/video"
)

// propCameras are the two-camera deployment of the property test.
var propCameras = []string{"cam0", "cam1"}

// 60 minutes at ε=3 makes 500 small queries dense enough that both
// admissions and denials occur, so the invariant is checked on both
// paths.
const propMinutes = 60
const propEpsilon = 3.0

func buildPropEngine(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{
		Seed:     1,
		StateDir: dir,
		// A small threshold exercises snapshot/compaction mid-
		// sequence: the invariant must hold across generation rolls.
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range propCameras {
		if err := e.RegisterCamera(core.CameraConfig{
			Name:    cam,
			Source:  testScene(propMinutes).Source(cam),
			Policy:  policy.Policy{Rho: 25 * time.Second, K: 1},
			Epsilon: propEpsilon,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Registry().Register("one", func(*video.Chunk) []table.Row {
		return []table.Row{{table.N(1)}}
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func propQuery(cam string, beginMin, endMin int, eps float64) string {
	return fmt.Sprintf(`
SPLIT %s BEGIN %s END %s BY TIME 30sec STRIDE 0sec INTO chunks;
PROCESS chunks USING one TIMEOUT 5sec PRODUCING 2 ROWS
  WITH SCHEMA (v:NUMBER=0) INTO t;
SELECT COUNT(*) FROM t CONSUMING %g;`, cam, tsLiteral(beginMin), tsLiteral(endMin), eps)
}

// checkInvariant asserts, for every camera at sampled frames, that
//
//	Epsilon - sum(WAL charges over the frame) == Engine.Remaining
//
// exactly — the durable ledger and the live ledger agree bit-for-bit.
func checkInvariant(t *testing.T, e *core.Engine, dir string, when string) {
	t.Helper()
	st, err := store.ReadState(dir, 0)
	if err != nil {
		t.Fatalf("%s: read WAL state: %v", when, err)
	}
	totalFrames := int64(propMinutes) * 600
	for _, cam := range propCameras {
		for frame := int64(0); frame < totalFrames; frame += 997 {
			rem, err := e.Remaining(cam, frame)
			if err != nil {
				t.Fatal(err)
			}
			if want := propEpsilon - st.Spent(cam, frame); rem != want {
				t.Fatalf("%s: %s frame %d: engine remaining %v != epsilon - WAL charges %v",
					when, cam, frame, rem, want)
			}
		}
	}
}

// TestWALLedgerEquivalenceProperty runs 1000 randomized queries (500
// per mode: straight through, and with a process restart mid-
// sequence) and checks the WAL/ledger equivalence invariant
// throughout. Budget denials are expected once frames fill up — they
// must consume nothing, which the invariant catches.
func TestWALLedgerEquivalenceProperty(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	for _, restart := range []bool{false, true} {
		name := "straight"
		if restart {
			name = "restart-midway"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := buildPropEngine(t, dir)
			defer func() { e.Close() }()
			rng := rand.New(rand.NewSource(42))
			admitted, denied := 0, 0
			for i := 0; i < n; i++ {
				cam := propCameras[rng.Intn(len(propCameras))]
				begin := rng.Intn(propMinutes - 1)
				end := begin + 1 + rng.Intn(10)
				if end > propMinutes {
					end = propMinutes
				}
				eps := []float64{0.05, 0.1, 0.25, 0.5}[rng.Intn(4)]
				prog, err := query.Parse(propQuery(cam, begin, end, eps))
				if err != nil {
					t.Fatal(err)
				}
				_, err = e.Execute(prog)
				switch {
				case err == nil:
					admitted++
				case errors.As(err, new(*dp.ErrBudgetExhausted)):
					denied++
				default:
					t.Fatalf("query %d: %v", i, err)
				}
				if restart && i == n/2 {
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					e = buildPropEngine(t, dir)
					checkInvariant(t, e, dir, fmt.Sprintf("after restart at %d", i))
				}
				if i%100 == 99 {
					checkInvariant(t, e, dir, fmt.Sprintf("after query %d", i))
				}
			}
			checkInvariant(t, e, dir, "at end")
			if admitted == 0 || denied == 0 {
				t.Fatalf("workload not exercising both paths: admitted=%d denied=%d", admitted, denied)
			}
			t.Logf("admitted=%d denied=%d", admitted, denied)
		})
	}
}
