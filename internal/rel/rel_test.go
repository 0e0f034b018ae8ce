package rel

import (
	"math"
	"strings"
	"testing"
	"time"

	"privid/internal/policy"
	"privid/internal/query"
	"privid/internal/table"
)

// testMeta returns metadata for a table of 100 chunks of 5 s at 10 fps
// with max_rows 10 and policy (rho=30s, K=1):
// Delta = 10 * 1 * (1 + ceil(30/5)) = 70; Size = 1000.
func testMeta(name, camera string) TableMeta {
	begin := time.Date(2021, 3, 15, 6, 0, 0, 0, time.UTC)
	return TableMeta{
		Name: name, Camera: camera,
		MaxRows: 10, ChunkFrames: 50, FPS: 10, NumChunks: 100,
		Begin: begin, End: begin.Add(500 * time.Second),
		Policy: policy.Policy{Rho: 30 * time.Second, K: 1},
	}
}

func carSchema() table.Schema {
	s := table.MustSchema(
		table.Column{Name: "plate", Type: table.DString, Default: table.S("")},
		table.Column{Name: "color", Type: table.DString, Default: table.S("")},
		table.Column{Name: "speed", Type: table.DNumber, Default: table.N(0)},
	)
	return s.WithImplicit(false)
}

func carEnv(t *testing.T) Env {
	t.Helper()
	meta := testMeta("tableA", "camA")
	base := float64(meta.Begin.Unix())
	tbl := table.New(carSchema())
	// (plate, color, speed, chunk-start offset seconds)
	add := func(plate, color string, speed, off float64) {
		tbl.Append(table.Row{table.S(plate), table.S(color), table.N(speed), table.N(base + off)})
	}
	add("AAA", "RED", 42, 100)
	add("AAA", "RED", 45, 105) // same car, next chunk
	add("BBB", "WHITE", 55, 100)
	add("CCC", "RED", 38, 110)
	add("DDD", "SILVER", 61, 120)
	return Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: tbl}}
}

func parseSelect(t *testing.T, sel string) *query.SelectStmt {
	t.Helper()
	src := `
SPLIT camA BEGIN 01-01-2021/12:00am END 01-02-2021/12:00am BY TIME 5sec STRIDE 0sec INTO chunksA;
PROCESS chunksA USING exe TIMEOUT 1sec PRODUCING 10 ROWS
 WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tableA;
SPLIT camB BEGIN 01-01-2021/12:00am END 01-02-2021/12:00am BY TIME 5sec STRIDE 0sec INTO chunksB;
PROCESS chunksB USING exe TIMEOUT 1sec PRODUCING 10 ROWS
 WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tableB;
` + sel
	prog, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog.Selects[0]
}

func TestCountAll(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM tableA;`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("%d releases", len(rels))
	}
	r := rels[0]
	if r.Raw != 5 {
		t.Errorf("raw=%v, want 5", r.Raw)
	}
	// Delta = 10 rows * K=1 * (1+ceil(30/5)=7) = 70.
	if r.Sensitivity != 70 {
		t.Errorf("sensitivity=%v, want 70", r.Sensitivity)
	}
	if len(r.Cameras) != 1 || r.Cameras[0] != "camA" {
		t.Errorf("cameras=%v", r.Cameras)
	}
}

func TestAvgWithRange(t *testing.T) {
	st := parseSelect(t, `SELECT AVG(range(speed, 30, 60)) FROM tableA;`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	r := rels[0]
	// Speeds truncated to [30,60]: 42,45,55,38,60 -> mean 48.
	if r.Raw != 48 {
		t.Errorf("raw=%v, want 48", r.Raw)
	}
	// Sensitivity = Delta * width / Size = 70*60/1000 = 4.2
	// (width = max(|30|,|60|,30) = 60).
	if math.Abs(r.Sensitivity-4.2) > 1e-9 {
		t.Errorf("sensitivity=%v, want 4.2", r.Sensitivity)
	}
}

func TestSumRequiresRange(t *testing.T) {
	st := parseSelect(t, `SELECT SUM(speed) FROM tableA;`)
	if _, err := ExecuteSelect(st, carEnv(t)); err == nil || !strings.Contains(err.Error(), "range constraint") {
		t.Fatalf("want range-constraint error, got %v", err)
	}
}

func TestGroupByWithKeys(t *testing.T) {
	st := parseSelect(t, `SELECT color, COUNT(plate) FROM
 (SELECT plate, color FROM tableA GROUP BY plate)
 GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"];`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 {
		t.Fatalf("%d releases, want 3 (one per key)", len(rels))
	}
	want := map[string]float64{"RED": 2, "WHITE": 1, "SILVER": 1} // AAA deduped
	for _, r := range rels {
		if !r.HasKey {
			t.Fatalf("release without key: %+v", r)
		}
		if r.Raw != want[r.Key.Str()] {
			t.Errorf("count[%s]=%v, want %v", r.Key.Str(), r.Raw, want[r.Key.Str()])
		}
		if r.Sensitivity != 70 {
			t.Errorf("per-key sensitivity=%v, want 70", r.Sensitivity)
		}
	}
}

func TestGroupByUntrustedNeedsKeys(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM tableA GROUP BY color;`)
	if _, err := ExecuteSelect(st, carEnv(t)); err == nil || !strings.Contains(err.Error(), "WITH KEYS") {
		t.Fatalf("want WITH-KEYS error, got %v", err)
	}
}

func TestGroupByTrustedBuckets(t *testing.T) {
	// Group by 100-second bins of the trusted chunk column. All
	// buckets in the window must appear, even empty ones.
	st := parseSelect(t, `SELECT COUNT(*) FROM (SELECT bin(chunk, 100) AS b FROM tableA) GROUP BY b;`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Window is 500 s starting at unix(2021-03-15 06:00)=1615788000,
	// which is divisible by 100 -> exactly 5 buckets.
	if len(rels) != 5 {
		t.Fatalf("%d releases, want 5 buckets", len(rels))
	}
	var total float64
	empty := 0
	for _, r := range rels {
		total += r.Raw
		if r.Raw == 0 {
			empty++
		}
		if !r.End.After(r.Begin) {
			t.Errorf("bucket window empty: %v-%v", r.Begin, r.End)
		}
		if span := r.End.Sub(r.Begin); span > 100*time.Second {
			t.Errorf("bucket span %v > 100s", span)
		}
	}
	if total != 5 {
		t.Errorf("bucket counts sum to %v, want 5", total)
	}
	if empty == 0 {
		t.Errorf("expected at least one empty bucket to be released")
	}
}

func TestGroupByHourOfDay(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM (SELECT hour(chunk) AS hr FROM tableA) GROUP BY hr;`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// The 500 s window covers a single hour of day (6am).
	if len(rels) != 1 {
		t.Fatalf("%d releases, want 1", len(rels))
	}
	if rels[0].Raw != 5 {
		t.Errorf("raw=%v, want 5", rels[0].Raw)
	}
}

func TestWhereAndLimit(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM (SELECT plate FROM tableA WHERE speed > 50);`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if rels[0].Raw != 2 { // 55, 61
		t.Errorf("filtered count=%v, want 2", rels[0].Raw)
	}
	// LIMIT binds the size constraint, enabling AVG without keys.
	st2 := parseSelect(t, `SELECT AVG(range(speed,0,100)) FROM (SELECT speed FROM tableA LIMIT 3);`)
	rels2, err := ExecuteSelect(st2, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Sensitivity = 70 * 100 / 3.
	if math.Abs(rels2[0].Sensitivity-70*100.0/3) > 1e-9 {
		t.Errorf("limit sensitivity=%v", rels2[0].Sensitivity)
	}
}

// twoCamEnv builds tableA (camA) and tableB (camB) sharing plates.
func twoCamEnv(t *testing.T) Env {
	env := carEnv(t)
	meta := testMeta("tableB", "camB")
	base := float64(meta.Begin.Unix())
	tblB := table.New(carSchema())
	add := func(plate, color string, speed, off float64) {
		tblB.Append(table.Row{table.S(plate), table.S(color), table.N(speed), table.N(base + off)})
	}
	add("AAA", "RED", 40, 200)
	add("EEE", "BLUE", 52, 200)
	env["tableB"] = &Instance{Metas: []TableMeta{meta}, Data: tblB}
	return env
}

func TestJoinIntersection(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM
 (SELECT plate FROM tableA GROUP BY plate) JOIN (SELECT plate FROM tableB GROUP BY plate) ON plate;`)
	rels, err := ExecuteSelect(st, twoCamEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	r := rels[0]
	if r.Raw != 1 { // only AAA appears in both
		t.Errorf("intersection=%v, want 1", r.Raw)
	}
	// The additive JOIN rule: Delta = 70 + 70, NOT min(70, 70). This
	// is the paper's "primed table" adversarial argument (Lemma E.1).
	if r.Sensitivity != 140 {
		t.Errorf("join sensitivity=%v, want 140 (additive)", r.Sensitivity)
	}
	if len(r.Cameras) != 2 {
		t.Errorf("cameras=%v", r.Cameras)
	}
}

func TestJoinRequiresDedup(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM tableA JOIN tableB ON plate;`)
	if _, err := ExecuteSelect(st, twoCamEnv(t)); err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("ungrouped join accepted: %v", err)
	}
}

// TestJoinPrimedTable verifies the adversarial scenario from §6.3
// concretely: an analyst primes tableA with a plate that only truly
// appears at camB. A single event at camB (its rows in tableB) then
// shows up in the intersection even though it never influenced tableA
// — so the data change in ONE table changed the join output, and the
// additive bound is what covers the total.
func TestJoinPrimedTable(t *testing.T) {
	env := twoCamEnv(t)
	// Prime tableA with plate ZZZ (never seen by camA).
	env["tableA"].Data.Append(table.Row{table.S("ZZZ"), table.S("RED"), table.N(0), table.N(float64(env["tableA"].Metas[0].Begin.Unix()) + 100)})
	st := parseSelect(t, `SELECT COUNT(*) FROM
 (SELECT plate FROM tableA GROUP BY plate) JOIN (SELECT plate FROM tableB GROUP BY plate) ON plate;`)
	before, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	// Now the event "ZZZ visible at camB" happens: rows appear ONLY in
	// tableB.
	env["tableB"].Data.Append(table.Row{table.S("ZZZ"), table.S("RED"), table.N(33), table.N(float64(env["tableB"].Metas[0].Begin.Unix()) + 210)})
	after, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Raw != before[0].Raw+1 {
		t.Fatalf("priming did not influence intersection: %v -> %v", before[0].Raw, after[0].Raw)
	}
	// The change (1 row) must be within the per-table Delta of tableB,
	// and a fortiori within the additive join sensitivity.
	if diff := after[0].Raw - before[0].Raw; diff > after[0].Sensitivity {
		t.Errorf("change %v exceeds sensitivity %v", diff, after[0].Sensitivity)
	}
}

func TestOuterJoinUnion(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM
 (SELECT plate FROM tableA GROUP BY plate) OUTER JOIN (SELECT plate FROM tableB GROUP BY plate) ON plate;`)
	rels, err := ExecuteSelect(st, twoCamEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct plates: AAA BBB CCC DDD (A) + EEE (B) = 5.
	if rels[0].Raw != 5 {
		t.Errorf("union size=%v, want 5", rels[0].Raw)
	}
	if rels[0].Sensitivity != 140 {
		t.Errorf("outer join sensitivity=%v, want 140", rels[0].Sensitivity)
	}
}

func TestUnionAll(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM
 (SELECT plate FROM tableA) UNION (SELECT plate FROM tableB);`)
	rels, err := ExecuteSelect(st, twoCamEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if rels[0].Raw != 7 { // 5 + 2 rows
		t.Errorf("union-all count=%v, want 7", rels[0].Raw)
	}
	if rels[0].Sensitivity != 140 {
		t.Errorf("union sensitivity=%v, want 140", rels[0].Sensitivity)
	}
}

func TestArgmax(t *testing.T) {
	st := parseSelect(t, `SELECT ARGMAX(color) FROM tableA GROUP BY color WITH KEYS ["RED","WHITE","SILVER"];`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("%d releases, want 1 (argmax is a single release)", len(rels))
	}
	r := rels[0]
	if len(r.Scores) != 3 {
		t.Fatalf("scores=%v", r.Scores)
	}
	byKey := map[string]float64{}
	for _, s := range r.Scores {
		byKey[s.Key.Str()] = s.Raw
	}
	if byKey["RED"] != 3 || byKey["WHITE"] != 1 || byKey["SILVER"] != 1 {
		t.Errorf("scores=%v", byKey)
	}
	if r.Sensitivity != 70 {
		t.Errorf("argmax sensitivity=%v, want 70", r.Sensitivity)
	}
}

func TestVariance(t *testing.T) {
	st := parseSelect(t, `SELECT VAR(range(speed, 30, 60)) FROM tableA;`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Values 42,45,55,38,60: mean 48, var = (36+9+49+100+144)/5 = 67.6.
	if math.Abs(rels[0].Raw-67.6) > 1e-9 {
		t.Errorf("var=%v, want 67.6", rels[0].Raw)
	}
	// Sensitivity = (Delta*width)^2 / Size = (70*60)^2/1000.
	want := 70.0 * 60 * 70 * 60 / 1000
	if math.Abs(rels[0].Sensitivity-want) > 1e-9 {
		t.Errorf("var sensitivity=%v, want %v", rels[0].Sensitivity, want)
	}
}

func TestProjectionArithmeticRange(t *testing.T) {
	// Projected arithmetic over range()-constrained columns keeps a
	// bound, so SUM over it works.
	st := parseSelect(t, `SELECT SUM(v) FROM (SELECT range(speed,0,100) + 10 AS v FROM tableA);`)
	rels, err := ExecuteSelect(st, carEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	// Sum of speeds+10: 42+45+55+38+61 + 50 = 291... speeds within
	// [0,100] unchanged: 241 + 50 = 291.
	if rels[0].Raw != 291 {
		t.Errorf("raw=%v, want 291", rels[0].Raw)
	}
	// width of [10,110] = max(110, 100) = 110; sensitivity 70*110.
	if rels[0].Sensitivity != 7700 {
		t.Errorf("sensitivity=%v, want 7700", rels[0].Sensitivity)
	}
}

func TestDivisionUnbindsRange(t *testing.T) {
	st := parseSelect(t, `SELECT SUM(v) FROM (SELECT range(speed,0,100) / speed AS v FROM tableA);`)
	if _, err := ExecuteSelect(st, carEnv(t)); err == nil {
		t.Fatalf("division should unbind the range and fail SUM")
	}
}

func TestRegionColumnTrusted(t *testing.T) {
	// A table with the implicit region column allows grouping by
	// region... via WITH KEYS (regions are public names).
	schema := table.MustSchema(
		table.Column{Name: "n", Type: table.DNumber, Default: table.N(0)},
	).WithImplicit(true)
	m := testMeta("tableR", "camA")
	m.Regions = 2
	tbl := table.New(schema)
	tbl.Append(table.Row{table.N(1), table.N(float64(m.Begin.Unix())), table.S("east")})
	tbl.Append(table.Row{table.N(2), table.N(float64(m.Begin.Unix())), table.S("west")})
	env := Env{"tableA": &Instance{Metas: []TableMeta{m}, Data: tbl}}
	st := parseSelect(t, `SELECT region, COUNT(*) FROM tableA GROUP BY region WITH KEYS ["east","west"];`)
	rels, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("%d releases", len(rels))
	}
}

func TestConstraintsWindow(t *testing.T) {
	env := twoCamEnv(t)
	m := env["tableB"].Metas[0]
	m.Begin = m.Begin.Add(-time.Hour)
	env["tableB"].Metas[0] = m
	st := parseSelect(t, `SELECT COUNT(*) FROM
 (SELECT plate FROM tableA) UNION (SELECT plate FROM tableB);`)
	rels, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	if !rels[0].Begin.Equal(m.Begin) {
		t.Errorf("release begin=%v, want %v", rels[0].Begin, m.Begin)
	}
}

// unionCamEnv builds two multi-camera tables that share camB:
// tableA over camA and camB (max_rows 10 each, ΔP 70 each) and tableB
// over camB (max_rows 20, ΔP 140) and camC (max_rows 5, ΔP 35), each
// row stamped with its shard's camera. Rows per camera: camA 2 and
// camB 1 in tableA; camB 3 and camC 1 in tableB.
func unionCamEnv(t *testing.T) Env {
	t.Helper()
	schema := table.MustSchema(
		table.Column{Name: "plate", Type: table.DString, Default: table.S("")},
	).WithImplicitCols(false, true)
	shard := func(name, camera string, maxRows int) TableMeta {
		m := testMeta(name, camera)
		m.MaxRows = maxRows
		return m
	}
	build := func(metas []TableMeta, rows map[string]int) *Instance {
		tbl := table.New(schema)
		for _, m := range metas {
			for i := 0; i < rows[m.Camera]; i++ {
				tbl.Append(table.Row{table.S("P"), table.N(float64(m.Begin.Unix())), table.S(m.Camera)})
			}
		}
		return &Instance{Metas: metas, Data: tbl}
	}
	return Env{
		"tableA": build([]TableMeta{shard("tableA", "camA", 10), shard("tableA", "camB", 10)}, map[string]int{"camA": 2, "camB": 1}),
		"tableB": build([]TableMeta{shard("tableB", "camB", 20), shard("tableB", "camC", 5)}, map[string]int{"camB": 3, "camC": 1}),
	}
}

// Fig. 10's per-key UNION rule over two multi-camera branches: rows
// keyed camera=c come only from c's shards in either branch, so the
// release for c carries the sum of those shards' ΔP and charges c
// alone, and ARGMAX's sensitivity is the largest per-key ΔP, not the
// union's. Expected values are worked by hand from unionCamEnv.
func TestUnionPerKeyAttribution(t *testing.T) {
	from := `FROM (SELECT plate, camera FROM tableA) UNION (SELECT plate, camera FROM tableB) GROUP BY camera`
	st := parseSelect(t, `SELECT camera, COUNT(*) `+from+` WITH KEYS ["camD", "camC", "camB", "camA"];`)
	rels, err := ExecuteSelect(st, unionCamEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key       string
		raw, sens float64
		cams      string
	}{
		{"camA", 2, 70, "camA"},
		{"camB", 4, 70 + 140, "camB"}, // both branches' camB shards
		{"camC", 1, 35, "camC"},
		{"camD", 0, 0, ""}, // in no branch: no rows, no sensitivity, no charge
	}
	if len(rels) != len(want) {
		t.Fatalf("%d releases, want %d", len(rels), len(want))
	}
	for i, w := range want {
		r := rels[i]
		if r.Key.Str() != w.key || r.Raw != w.raw || r.Sensitivity != w.sens || strings.Join(r.Cameras, ",") != w.cams {
			t.Errorf("release %d = key %s, raw %v, sensitivity %v, cameras %v; want %s, %v, %v, [%s]",
				i, r.Key.Str(), r.Raw, r.Sensitivity, r.Cameras, w.key, w.raw, w.sens, w.cams)
		}
	}

	st = parseSelect(t, `SELECT ARGMAX(camera) `+from+` WITH KEYS ["camA", "camB", "camC"];`)
	if rels, err = ExecuteSelect(st, unionCamEnv(t)); err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("%d ARGMAX releases, want 1", len(rels))
	}
	r := rels[0]
	scores := map[string]float64{}
	for _, s := range r.Scores {
		scores[s.Key.Str()] = s.Raw
	}
	// The largest per-key ΔP is camB's 210; the whole union's is 315.
	if r.Sensitivity != 210 || scores["camA"] != 2 || scores["camB"] != 4 || scores["camC"] != 1 ||
		strings.Join(r.Cameras, ",") != "camA,camB,camC" {
		t.Errorf("ARGMAX = sensitivity %v, scores %v, cameras %v; want 210, camA 2 camB 4 camC 1, every camera",
			r.Sensitivity, scores, r.Cameras)
	}
}
