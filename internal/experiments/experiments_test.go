package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
)

// testConfig is a tiny-scale configuration: shapes must hold even
// here, though absolute accuracies improve with scale (DP noise is
// scale-free while signals grow).
func testConfig() Config { return Config{Scale: 0.02, Seed: 1} }

var update = flag.Bool("update", false, "rewrite the values in "+goldenPath+" from this run (tolerances and reasons are kept)")

const goldenPath = "testdata/golden.json"

// golden is one recorded metric under testConfig: a later run may stray
// from Value by at most Tol (absolute), for the reason Why gives.
type golden struct {
	Value float64 `json:"value"`
	Tol   float64 `json:"tol"`
	Why   string  `json:"why"`
}

var goldens struct {
	sync.Mutex
	once sync.Once
	m    map[string]map[string]golden // experiment -> metric -> golden
	err  error
}

// runExp runs one experiment under testConfig and checks every metric
// it reports against its golden, so each experiment runs once for both
// its shape test and its golden check.
func runExp(t *testing.T, id string) *Summary {
	t.Helper()
	exp, ok := Get(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	sum, err := exp.Run(testConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	checkGolden(t, id, sum)
	return sum
}

func checkGolden(t *testing.T, id string, sum *Summary) {
	t.Helper()
	goldens.once.Do(func() {
		b, err := os.ReadFile(goldenPath)
		if err == nil {
			err = json.Unmarshal(b, &goldens.m)
		}
		goldens.err = err
	})
	if goldens.err != nil && !*update {
		t.Fatalf("goldens: %v", goldens.err)
	}
	goldens.Lock()
	defer goldens.Unlock()
	want := goldens.m[id]
	if *update {
		next := map[string]golden{}
		for k, v := range sum.Metrics {
			g := want[k]
			g.Value = v
			next[k] = g
		}
		if goldens.m == nil {
			goldens.m = map[string]map[string]golden{}
		}
		goldens.m[id] = next
		b, err := json.MarshalIndent(goldens.m, "", "  ")
		if err == nil {
			err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, k := range sum.SortedKeys() {
		g, ok := want[k]
		got := sum.Metrics[k]
		switch {
		case !ok:
			t.Errorf("%s: metric %s=%v has no golden", id, k, got)
		case g.Why == "":
			t.Errorf("%s: golden %s states no reason for its tolerance", id, k)
		case !(math.Abs(got-g.Value) <= g.Tol):
			t.Errorf("%s: %s=%v left its golden %v±%v (%s)", id, k, got, g.Value, g.Tol, g.Why)
		}
	}
	var gone []string
	for k := range want {
		if _, ok := sum.Metrics[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		t.Errorf("%s: golden metric %s no longer reported", id, k)
	}
}

// TestGoldensCover: every experiment has goldens, so none escapes the
// check by lacking a shape test.
func TestGoldensCover(t *testing.T) {
	if *update {
		t.Skip("rewriting goldens")
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]map[string]golden
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if len(m[e.ID]) == 0 {
			t.Errorf("experiment %s has no goldens", e.ID)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table6", "ablation", "soak"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Paper == "" || all[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Errorf("Get accepted unknown id")
	}
}

// TestTable1Shape: CV estimates must be conservative on every video
// despite substantial per-frame miss rates.
func TestTable1Shape(t *testing.T) {
	sum := runExp(t, "table1")
	for _, v := range []string{"campus", "highway", "urban"} {
		if sum.Metrics["conservative_"+v] != 1 {
			t.Errorf("%s: CV estimate %.1f not conservative vs GT %.1f",
				v, sum.Metrics["cv_"+v], sum.Metrics["gt_"+v])
		}
	}
	// Miss rates must be substantial and ordered like the paper:
	// highway < campus < urban.
	if !(sum.Metrics["missed_highway"] < sum.Metrics["missed_campus"] &&
		sum.Metrics["missed_campus"] < sum.Metrics["missed_urban"]) {
		t.Errorf("miss-rate ordering wrong: %v %v %v",
			sum.Metrics["missed_highway"], sum.Metrics["missed_campus"], sum.Metrics["missed_urban"])
	}
	if sum.Metrics["missed_urban"] < 0.5 {
		t.Errorf("urban miss rate %.2f, want the paper's harsh conditions (>0.5)", sum.Metrics["missed_urban"])
	}
}

// TestTable2Shape: splitting must never hurt, and must help on the
// busy videos.
func TestTable2Shape(t *testing.T) {
	sum := runExp(t, "table2")
	for _, v := range []string{"campus", "highway", "urban"} {
		if sum.Metrics["region_"+v] > sum.Metrics["frame_"+v] {
			t.Errorf("%s: region max exceeds frame max", v)
		}
	}
	for _, v := range []string{"highway", "urban"} {
		if sum.Metrics["reduction_"+v] < 1.3 {
			t.Errorf("%s: reduction %.2fx, want >=1.3x", v, sum.Metrics["reduction_"+v])
		}
	}
}

// TestTable3Shape: the zero-noise and argmax cases must be exact even
// at tiny scale; the tree queries must stay accurate.
func TestTable3Shape(t *testing.T) {
	sum := runExp(t, "table3")
	for _, q := range []string{"q10", "q11", "q12"} {
		if sum.Metrics[q+"_accuracy"] != 1 {
			t.Errorf("%s accuracy %.2f, want 1 (rho=0 => no noise)", q, sum.Metrics[q+"_accuracy"])
		}
		if sum.Metrics[q+"_noise"] != 0 {
			t.Errorf("%s noise %.3f, want 0", q, sum.Metrics[q+"_noise"])
		}
	}
	if sum.Metrics["q6_accuracy"] != 1 {
		t.Errorf("q6 argmax missed the busiest camera")
	}
	for _, q := range []string{"q7", "q8", "q9"} {
		if sum.Metrics[q+"_accuracy"] < 0.7 {
			t.Errorf("%s accuracy %.2f, want >=0.7 even at tiny scale", q, sum.Metrics[q+"_accuracy"])
		}
	}
	if sum.Metrics["q4_accuracy"] < 0.2 {
		t.Errorf("q4 accuracy %.2f collapsed", sum.Metrics["q4_accuracy"])
	}
}

// TestFig4Shape: the linger masks must slash max persistence on the
// videos with lingerers while retaining almost all objects.
func TestFig4Shape(t *testing.T) {
	sum := runExp(t, "fig4")
	for _, v := range []string{"highway", "urban"} {
		if sum.Metrics["factor_"+v] < 3 {
			t.Errorf("%s: mask factor %.2fx, want >=3x", v, sum.Metrics["factor_"+v])
		}
		if sum.Metrics["retained_"+v] < 0.9 {
			t.Errorf("%s: retained %.2f, want >=0.9", v, sum.Metrics["retained_"+v])
		}
	}
}

// TestFig5Shape: the busy videos must track the original within
// usable accuracy even at tiny scale.
func TestFig5Shape(t *testing.T) {
	sum := runExp(t, "fig5")
	if sum.Metrics["q2_accuracy"] < 0.5 {
		t.Errorf("q2 accuracy %.2f, want >=0.5", sum.Metrics["q2_accuracy"])
	}
	// Noise scales must be positive and ordered with Delta (campus
	// smallest).
	if !(sum.Metrics["q1_noise_scale"] < sum.Metrics["q2_noise_scale"] &&
		sum.Metrics["q2_noise_scale"] < sum.Metrics["q3_noise_scale"]) {
		t.Errorf("noise ordering wrong: %v %v %v",
			sum.Metrics["q1_noise_scale"], sum.Metrics["q2_noise_scale"], sum.Metrics["q3_noise_scale"])
	}
}

// TestFig6Shape: tiny chunks are noise-dominated — RMSE at c=1s must
// exceed RMSE at c=30s for every video at the realistic output cap.
func TestFig6Shape(t *testing.T) {
	sum := runExp(t, "fig6")
	for _, v := range []string{"campus", "highway", "urban"} {
		if sum.Metrics["rmse_c1_"+v] <= sum.Metrics["rmse_c30_"+v] {
			t.Errorf("%s: RMSE(c=1s)=%.0f not worse than RMSE(c=30s)=%.0f",
				v, sum.Metrics["rmse_c1_"+v], sum.Metrics["rmse_c30_"+v])
		}
	}
}

// TestFig7Shape: noise must decay monotonically with window size.
func TestFig7Shape(t *testing.T) {
	sum := runExp(t, "fig7")
	for _, v := range []string{"campus", "highway", "urban"} {
		if sum.Metrics["noise12h_"+v] >= sum.Metrics["noise2h_"+v] {
			t.Errorf("%s: noise did not decay with window: %v -> %v",
				v, sum.Metrics["noise2h_"+v], sum.Metrics["noise12h_"+v])
		}
	}
}

// TestFig8Shape: Eq. C.3's curve — α·e^ε at the bound, saturating far
// past it.
func TestFig8Shape(t *testing.T) {
	sum := runExp(t, "fig8")
	if p := sum.Metrics["p_at_bound_a0.01"]; p < 0.02 || p > 0.03 {
		t.Errorf("P(detect at bound, a=1%%) = %v, want ~e*0.01", p)
	}
	if p := sum.Metrics["p_at_12x_a0.2"]; p < 0.99 {
		t.Errorf("P(detect at 12x, a=20%%) = %v, want ~1", p)
	}
}

// TestTable6Shape: greedy masking must achieve a large reduction on
// every one of the ten videos.
func TestTable6Shape(t *testing.T) {
	sum := runExp(t, "table6")
	videos := []string{"campus", "highway", "urban", "grand-canal", "venice-rialto",
		"taipei", "shibuya", "beach", "warsaw", "uav"}
	for _, v := range videos {
		if sum.Metrics["reduction_"+v] < 4 {
			t.Errorf("%s: greedy reduction %.1fx, want >=4x", v, sum.Metrics["reduction_"+v])
		}
		if sum.Metrics["maskfrac_"+v] > 0.6 {
			t.Errorf("%s: mask fraction %.2f, want a minority of cells", v, sum.Metrics["maskfrac_"+v])
		}
	}
}

// TestFig3Shape: lingering must be spatially concentrated: the 90th
// percentile cell is far below the max on videos with lingerers (the
// hot region covers only a few percent of the frame).
func TestFig3Shape(t *testing.T) {
	sum := runExp(t, "fig3")
	for _, v := range []string{"highway", "urban"} {
		if sum.Metrics["p90cell_"+v] > sum.Metrics["maxcell_"+v]*0.5 {
			t.Errorf("%s: persistence not concentrated (p90=%v max=%v)",
				v, sum.Metrics["p90cell_"+v], sum.Metrics["maxcell_"+v])
		}
	}
}

// TestAblationShape: removing the mask must cost noise (the parked-car
// rho applies), and shrinking chunks below the persistence scale must
// cost noise too.
func TestAblationShape(t *testing.T) {
	sum := runExp(t, "ablation")
	if sum.Metrics["mask_benefit"] < 2 {
		t.Errorf("mask benefit %.2fx, want >=2x (unmasked rho includes parked cars)", sum.Metrics["mask_benefit"])
	}
	if sum.Metrics["chunk_benefit"] < 1.5 {
		t.Errorf("chunk benefit %.2fx, want >=1.5x", sum.Metrics["chunk_benefit"])
	}
	if sum.Metrics["rho_masked_sec"] >= sum.Metrics["rho_unmasked_sec"] {
		t.Errorf("masked rho %.0fs not below unmasked %.0fs",
			sum.Metrics["rho_masked_sec"], sum.Metrics["rho_unmasked_sec"])
	}
}

// TestEvalEngine exercises the exported deployment constructor used by
// cmd/privid.
func TestEvalEngine(t *testing.T) {
	cfg := testConfig()
	e, err := NewEvalEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Registry().Lookup("trees"); !ok {
		t.Errorf("standard executable 'trees' missing")
	}
	begin, end := EvalWindow(cfg)
	if !end.After(begin) {
		t.Errorf("bad window %v-%v", begin, end)
	}
	if FormatTimestamp(begin) == "" || DescribeEngine(cfg) == "" {
		t.Errorf("describe helpers empty")
	}
}

// TestSoakShape: the fleet soak finds no invariant violation, clean or
// under chaos.
func TestSoakShape(t *testing.T) {
	sum := runExp(t, "soak")
	for _, mode := range []string{"clean", "chaos"} {
		if v := sum.Metrics[mode+"_violations"]; v != 0 {
			t.Errorf("%s soak: %v invariant violations", mode, v)
		}
		if sum.Metrics[mode+"_ops_done"] == 0 {
			t.Errorf("%s soak: no operation completed", mode)
		}
	}
}
