package privid_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"privid"
	"privid/internal/query"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart describes: owner registration, analyst code, query,
// noisy releases, budget consumption.
func TestFacadeEndToEnd(t *testing.T) {
	engine := privid.New(privid.Options{Seed: 1, Evaluation: true})
	src := privid.NewSceneCamera("campus", privid.CampusProfile(), 7, time.Hour)
	if err := engine.RegisterCamera(privid.CameraConfig{
		Name:    "campus",
		Source:  src,
		Policy:  privid.Policy{Rho: time.Minute, K: 2},
		Epsilon: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Registry().Register("headcount", func(chunk *privid.Chunk) []privid.Row {
		n := 0
		for _, o := range chunk.Frame(chunk.Len() / 2).Objects {
			if o.EntityID >= 0 {
				n++
			}
		}
		return []privid.Row{{privid.N(float64(n))}}
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := privid.Parse(`
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT AVG(range(n, 0, 30)) FROM t CONSUMING 1;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 1 {
		t.Fatalf("%d releases", len(res.Releases))
	}
	r := res.Releases[0]
	if !r.RawSet {
		t.Fatalf("evaluation mode should expose raw values")
	}
	if r.Raw < 0 || r.Raw > 30 {
		t.Errorf("raw average out of range: %v", r.Raw)
	}
	if r.NoiseScale <= 0 {
		t.Errorf("noise scale = %v", r.NoiseScale)
	}
	if res.EpsilonSpent != 1 {
		t.Errorf("spent = %v", res.EpsilonSpent)
	}
	// The budget ledger must reflect the spend.
	rem, err := engine.Remaining("campus", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 9 {
		t.Errorf("remaining = %v, want 9", rem)
	}
}

func TestFacadeProfilesAndFleet(t *testing.T) {
	if got := len(privid.AllProfiles()); got != 10 {
		t.Errorf("profiles = %d, want 10", got)
	}
	cfg := privid.DefaultTaxiConfig()
	cfg.Days = 3
	cfg.Taxis = 20
	cfg.Cameras = 10
	fleet := privid.NewTaxiFleet(cfg)
	src := fleet.Source(5)
	if !strings.HasPrefix(src.Info().Camera, "porto") {
		t.Errorf("camera name %q", src.Info().Camera)
	}
}

func TestFacadeOwnerTooling(t *testing.T) {
	p := privid.CampusProfile()
	s := privid.GenerateScene(p, 3, 20*time.Minute)
	pm := privid.BuildMaskPolicyMap("campus", s, 2, []float64{1, 4})
	if len(pm.Entries) != 2 {
		t.Fatalf("%d policy entries", len(pm.Entries))
	}
	if pm.Entries[1].Policy.Rho > pm.Entries[0].Policy.Rho {
		t.Errorf("mask ladder rho not decreasing")
	}
	src := privid.NewSceneCamera("campus", p, 3, 20*time.Minute)
	if est := privid.EstimateMaxDuration(src, p, 3); est <= 0 {
		t.Errorf("duration estimate %v", est)
	}
	schemes := privid.SchemesFromProfile(privid.HighwayProfile())
	if _, ok := schemes["directions"]; !ok {
		t.Errorf("highway schemes missing directions: %v", schemes)
	}
}

// TestDocProgramsParse keeps the documented queries honest: every fenced
// block of README.md and docs/QUERY_LANGUAGE.md that holds a complete
// program — first token SPLIT, last character ';' — parses. A block
// that does not is a doc bug: fix the doc.
func TestDocProgramsParse(t *testing.T) {
	programs := 0
	for _, path := range []string{"README.md", "docs/QUERY_LANGUAGE.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Odd-numbered pieces are the fenced blocks' bodies (the rest of
		// each fence line is its info string).
		blocks := strings.Split(string(doc), "\n```")
		for i := 1; i < len(blocks); i += 2 {
			_, body, _ := strings.Cut(blocks[i], "\n")
			body = strings.TrimSpace(body)
			if f := strings.Fields(body); len(f) == 0 || f[0] != "SPLIT" || !strings.HasSuffix(body, ";") {
				continue
			}
			programs++
			if _, err := query.Parse(body); err != nil {
				t.Errorf("%s, fenced block %d: %v\n%s", path, i/2+1, err, body)
			}
		}
	}
	if programs == 0 {
		t.Fatal("found no documented programs")
	}
	t.Logf("%d documented programs parse", programs)
}
