package rel_test

// Engine-level tests over the differential generator's programs: each
// seed's SELECT (as TestDifferentialExecuteSelect draws it) runs on a
// core.Engine over tables tA and tB that two PROCESS statements fill
// with the seed's generated rows. They pin what makes sharing one
// parsed program safe: executing a program never writes it, and the
// engine's planner memo returns exactly what planning afresh would.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"privid/internal/core"
	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/rel"
	"privid/internal/scene"
	"privid/internal/table"
	"privid/internal/video"
)

const genSeeds = 300

const genHead = `
SPLIT cam BEGIN 03-15-2021/6:00am END 03-15-2021/6:02am BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING rowsA%[1]d TIMEOUT 5sec PRODUCING 40 ROWS
  WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tA;
PROCESS c USING rowsB%[1]d TIMEOUT 5sec PRODUCING 40 ROWS
  WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tB;
SELECT COUNT(*) FROM tA;`

// genProgram builds seed's program afresh (a new AST every call) and
// the generated tables its executables emit.
func genProgram(t *testing.T, seed int64) (*query.Program, rel.Env) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	env := rel.DiffEnv(rng)
	from, cols := rel.DiffSchemaPreserving(rng, rng.Intn(3))
	sel := rel.DiffSelectStmt(rng, from, cols)
	prog, err := query.Parse(fmt.Sprintf(genHead, seed))
	if err != nil {
		t.Fatal(err)
	}
	prog.Selects = []*query.SelectStmt{sel}
	return prog, env
}

// genEngine returns an evaluation-mode engine with one camera and a
// budget no test run exhausts.
func genEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New(core.Options{Seed: 7, Evaluation: true, Parallelism: 2})
	t.Cleanup(func() { _ = e.Close() })
	if err := e.RegisterCamera(core.CameraConfig{
		Name:    "cam",
		Source:  scene.Generate(scene.Campus(), 1, 5*time.Minute).Source("cam"),
		Policy:  policy.Policy{Rho: 20 * time.Second, K: 2},
		Epsilon: 1e12,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// registerRows registers seed's executables on e: every chunk of tA
// (tB) yields the generated table's data columns.
func registerRows(t *testing.T, e *core.Engine, seed int64, env rel.Env) {
	t.Helper()
	for _, name := range []string{"tA", "tB"} {
		data := env[name].Data
		rows := make([]table.Row, data.Len())
		for i := range rows {
			rows[i] = data.Row(i)[:3] // plate, color, speed
		}
		fn := func(*video.Chunk) []table.Row { return rows }
		if err := e.Registry().Register(fmt.Sprintf("rows%s%d", name[1:], seed), fn); err != nil {
			t.Fatal(err)
		}
	}
}

// astEqual is reflect.DeepEqual with floats compared by their bits, so
// the generator's NaN literals equal themselves.
func astEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return astEqual(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !astEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !astEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	panic("astEqual: unexpected kind " + a.Kind().String())
}

// TestExecuteLeavesProgramUnchanged runs every generator program —
// accepted, pushed down, materialised or rejected — and requires its
// AST afterwards to equal a fresh build of the same program.
func TestExecuteLeavesProgramUnchanged(t *testing.T) {
	e := genEngine(t)
	for seed := int64(0); seed < genSeeds; seed++ {
		prog, env := genProgram(t, seed)
		registerRows(t, e, seed, env)
		_, _ = e.Execute(prog)
		_, _ = e.Execute(prog)
		if fresh, _ := genProgram(t, seed); !astEqual(reflect.ValueOf(prog), reflect.ValueOf(fresh)) {
			t.Fatalf("seed %d: executing the program modified its AST", seed)
		}
	}
}

// TestPlanMemoDifferential runs every generator program twice on one
// engine — a memo miss, then a hit — and each time against an engine
// that only ever sees fresh programs, so its memo is cold for every
// call. With the same noise seed and the same execution order, the
// releases, sensitivities, noise scales and per-camera charges must be
// bit-identical, and rejections must read the same.
func TestPlanMemoDifferential(t *testing.T) {
	warm, cold := genEngine(t), genEngine(t)
	for seed := int64(0); seed < genSeeds; seed++ {
		prog, env := genProgram(t, seed)
		registerRows(t, warm, seed, env)
		registerRows(t, cold, seed, env)
		for run := 0; run < 2; run++ {
			fresh, _ := genProgram(t, seed)
			got, gerr := warm.Execute(prog)
			want, werr := cold.Execute(fresh)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("seed %d run %d: error %v, cold memo %v", seed, run, gerr, werr)
			}
			if gerr == nil {
				compareResults(t, fmt.Sprintf("seed %d run %d", seed, run), got, want)
			}
		}
	}
	hits := func(e *core.Engine) float64 { return e.StatsGroups()["plan_memo"]["hits"] }
	if hits(warm) == 0 || hits(cold) != 0 {
		t.Fatalf("memo hits: warm %v, cold %v; want some, none", hits(warm), hits(cold))
	}
}

// compareResults requires bit-identical results.
func compareResults(t *testing.T, at string, got, want *core.Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Releases) != len(want.Releases) || len(got.Cameras) != len(want.Cameras) || !same(got.EpsilonSpent, want.EpsilonSpent) {
		t.Fatalf("%s: result shape %+v, cold memo %+v", at, got, want)
	}
	for i, g := range got.Releases {
		w := want.Releases[i]
		if g.Desc != w.Desc || g.HasKey != w.HasKey || !g.Key.KeyEqual(w.Key) || g.IsArgmax != w.IsArgmax ||
			!g.ArgmaxKey.KeyEqual(w.ArgmaxKey) || !g.RawArgmaxKey.KeyEqual(w.RawArgmaxKey) ||
			!same(g.Value, w.Value) || !same(g.Raw, w.Raw) || !same(g.Sensitivity, w.Sensitivity) ||
			!same(g.NoiseScale, w.NoiseScale) || !same(g.Epsilon, w.Epsilon) || !g.Begin.Equal(w.Begin) || !g.End.Equal(w.End) {
			t.Fatalf("%s: release %d\n got %+v\nwant %+v", at, i, g, w)
		}
	}
	for i, g := range got.Cameras {
		if w := want.Cameras[i]; g.Camera != w.Camera || !same(g.EpsilonSpent, w.EpsilonSpent) || !same(g.Remaining, w.Remaining) {
			t.Fatalf("%s: camera %d: %+v, cold memo %+v", at, i, g, w)
		}
	}
}
