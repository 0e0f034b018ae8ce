package rel

// Tests of the partial-aggregation pushdown layer: a 300-seed extension
// of the differential harness that replays every eligible generated
// SELECT through chunked fold + shuffled merges against the row-major
// oracle, a merge-order invariance property test, codec round-trips,
// and the release-order determinism golden test.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

// bitEq is exact float equality (±0 distinguished); NaNs compare equal
// regardless of payload.
func bitEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// splitChunks cuts a table into randomly sized contiguous chunk tables,
// sometimes appending an empty chunk (a chunk whose sandbox emitted no
// rows).
func splitChunks(rng *rand.Rand, t *table.Table) []*table.Table {
	var out []*table.Table
	n := t.Len()
	for i := 0; i < n; {
		m := 1 + rng.Intn(5)
		if i+m > n {
			m = n - i
		}
		c := table.New(t.Schema)
		for r := i; r < i+m; r++ {
			c.Append(t.Row(r))
		}
		out = append(out, c)
		i += m
	}
	if rng.Intn(2) == 0 {
		out = append(out, table.New(t.Schema))
	}
	return out
}

// comparePartialReleases requires got to match want exactly: header,
// key, bit-exact raw value and sensitivity, windows, cameras, charge
// windows and scores, in order.
func comparePartialReleases(t *testing.T, seed int64, got, want []Release) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d releases vs %d", seed, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Desc != w.Desc || g.Fun != w.Fun || g.HasKey != w.HasKey {
			t.Fatalf("seed %d: release %d header: %+v vs %+v", seed, i, g, w)
		}
		if g.HasKey && !sameValue(g.Key, w.Key) {
			t.Fatalf("seed %d: release %d key: %s vs %s", seed, i, g.Key.Key(), w.Key.Key())
		}
		if !bitEq(g.Raw, w.Raw) || !bitEq(g.Sensitivity, w.Sensitivity) {
			t.Fatalf("seed %d: release %d raw/sens: (%v,%v) vs (%v,%v)", seed, i, g.Raw, g.Sensitivity, w.Raw, w.Sensitivity)
		}
		if !g.Begin.Equal(w.Begin) || !g.End.Equal(w.End) {
			t.Fatalf("seed %d: release %d window: %v-%v vs %v-%v", seed, i, g.Begin, g.End, w.Begin, w.End)
		}
		if len(g.Cameras) != len(w.Cameras) {
			t.Fatalf("seed %d: release %d cameras: %v vs %v", seed, i, g.Cameras, w.Cameras)
		}
		for c := range g.Cameras {
			if g.Cameras[c] != w.Cameras[c] {
				t.Fatalf("seed %d: release %d cameras: %v vs %v", seed, i, g.Cameras, w.Cameras)
			}
		}
		if len(g.CamWindows) != len(w.CamWindows) {
			t.Fatalf("seed %d: release %d cam windows: %v vs %v", seed, i, g.CamWindows, w.CamWindows)
		}
		for cam, gw := range g.CamWindows {
			ww, ok := w.CamWindows[cam]
			if !ok || !gw[0].Equal(ww[0]) || !gw[1].Equal(ww[1]) {
				t.Fatalf("seed %d: release %d cam window %q: %v vs %v", seed, i, cam, gw, ww)
			}
		}
		if len(g.Scores) != len(w.Scores) {
			t.Fatalf("seed %d: release %d scores: %d vs %d", seed, i, len(g.Scores), len(w.Scores))
		}
		for s := range g.Scores {
			if !sameValue(g.Scores[s].Key, w.Scores[s].Key) || !bitEq(g.Scores[s].Raw, w.Scores[s].Raw) {
				t.Fatalf("seed %d: release %d score %d diverges", seed, i, s)
			}
		}
	}
}

// sameState is exact state equality: every count, tally and camera
// row, and every sum bit for bit (NaN payloads and the sign of zero
// included).
func sameState(a, b *PartialState) bool {
	if len(a.Sums) != len(b.Sums) || (a.Sums == nil) != (b.Sums == nil) {
		return false
	}
	for i := range a.Sums {
		if math.Float64bits(a.Sums[i]) != math.Float64bits(b.Sums[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.Counts, b.Counts) && a.Rows == b.Rows && a.Chunks == b.Chunks &&
		reflect.DeepEqual(a.CamRows, b.CamRows)
}

func cloneState(s *PartialState) *PartialState {
	c := &PartialState{Counts: append([]int64(nil), s.Counts...), Rows: s.Rows, Chunks: s.Chunks}
	if s.Sums != nil {
		c.Sums = append([]float64{}, s.Sums...)
	}
	if s.CamRows != nil {
		c.CamRows = make(map[string]int64, len(s.CamRows))
		for cam, r := range s.CamRows {
			c.CamRows[cam] = r
		}
	}
	return c
}

// TestDifferentialStreamingMerge extends the differential harness to
// the streaming-merge path: every generated SELECT the pushdown planner
// accepts is evaluated by folding random chunkings, round-tripping each
// chunk state through the binary codec, merging in shuffled orders, and
// finalizing — and must reproduce the row-major oracle's releases
// exactly. Every chunk is also folded straight to bytes (FoldEncoded,
// the engine's cold path), which must equal its encoded Partial state
// byte for byte. Every merge runs twice, decoded (Merge∘Decode) and straight
// out of the encoded bytes (MergeEncoded, the engine's warm path); the
// two merged states must be identical bit for bit.
func TestDifferentialStreamingMerge(t *testing.T) {
	var foldScratch PartialState
	accepted := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		env := diffEnv(rng)
		from, cols := diffSchemaPreserving(rng, rng.Intn(3))
		st := diffSelectStmt(rng, from, cols)

		refs := referencedTables(st.From)
		if len(refs) != 1 {
			t.Fatalf("seed %d: generator produced %d table refs", seed, len(refs))
		}
		inst := env[refs[0]]
		plan := PlanPartial(st, refs[0], inst.Data.Schema, inst.Metas)
		if plan == nil {
			// Declined statements take the full materialization path,
			// whose parity the existing differential suites pin.
			continue
		}
		want, werr := oracleExecuteSelect(st, env)
		if werr != nil {
			t.Fatalf("seed %d: plan accepted a failing statement: %v", seed, werr)
		}
		accepted++

		for trial := 0; trial < 3; trial++ {
			chunks := splitChunks(rng, inst.Data)
			states := make([]*PartialState, len(chunks))
			raws := make([][]byte, len(chunks))
			for i, c := range chunks {
				s, err := plan.Partial(c, inst.Metas[0].Camera)
				if err != nil {
					t.Fatalf("seed %d: fold chunk %d: %v", seed, i, err)
				}
				raws[i] = s.EncodeBinary()
				// The engine's fold-to-bytes path, its scratch shared
				// with every earlier statement and chunk.
				if enc, err := plan.FoldEncoded(c, inst.Metas[0].Camera, &foldScratch); err != nil || string(enc) != string(raws[i]) {
					t.Fatalf("seed %d: FoldEncoded of chunk %d = %x, %v; want %x", seed, i, enc, err, raws[i])
				}
				dec, err := DecodePartialState(raws[i])
				if err != nil {
					t.Fatalf("seed %d: codec round-trip chunk %d: %v", seed, i, err)
				}
				if !plan.compatible(dec) || !plan.CompatibleEncoded(raws[i]) {
					t.Fatalf("seed %d: decoded state incompatible with plan", seed)
				}
				states[i] = dec
			}
			merged, mergedEnc := plan.NewState(), plan.NewState()
			for _, i := range rng.Perm(len(states)) {
				plan.Merge(merged, states[i])
				if err := plan.MergeEncoded(mergedEnc, raws[i]); err != nil {
					t.Fatalf("seed %d: encoded merge of chunk %d: %v", seed, i, err)
				}
			}
			if !sameState(mergedEnc, merged) {
				t.Fatalf("seed %d: MergeEncoded diverged from Merge∘Decode:\n%+v\n%+v", seed, mergedEnc, merged)
			}
			comparePartialReleases(t, seed, plan.Finalize(merged), want)
			comparePartialReleases(t, seed, plan.Finalize(mergedEnc), want)
		}
	}
	if accepted == 0 {
		t.Fatal("no generated statement was eligible for pushdown; generator or planner drifted")
	}
}

// TestPartialMergeOrderInvariance is the merge-order property test: one
// seeded table with special floats, many random chunkings, shuffled
// merge orders — every run must finalize to bit-identical releases and
// sensitivities, equal to the materialized path's.
func TestPartialMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	meta := testMeta("tableA", "camA")
	base := float64(meta.Begin.Unix())
	colors := []string{"RED", "WHITE", "SILVER", "BLACK"}
	tbl := table.New(carSchema())
	for i := 0; i < 500; i++ {
		tbl.Append(table.Row{
			table.S("P" + strconv.Itoa(i%13)),
			table.S(colors[rng.Intn(len(colors))]),
			table.N(diffNum(rng)), // quarter-integers, NaN, ±Inf, ±0
			table.N(base + float64(rng.Intn(100))*5),
		})
	}
	env := Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: tbl}}
	st := benchStmt()
	plan := PlanPartial(st, "tableA", tbl.Schema, []TableMeta{meta})
	if plan == nil {
		t.Fatal("grouped SUM with range constraint must be eligible")
	}
	want, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		chunks := splitChunks(rng, tbl)
		states := make([]*PartialState, len(chunks))
		for i, c := range chunks {
			s, err := plan.Partial(c, "camA")
			if err != nil {
				t.Fatalf("trial %d: fold: %v", trial, err)
			}
			states[i] = s
		}
		merged := plan.NewState()
		for _, i := range rng.Perm(len(states)) {
			plan.Merge(merged, states[i])
		}
		comparePartialReleases(t, int64(trial), plan.Finalize(merged), want)
	}
}

// TestReleaseOrderDeterminism is the satellite golden test: finalized
// GROUP BY releases sort by group key on both paths — independent of
// WITH KEYS order and of chunk arrival order — and numeric keys sort
// numerically, not lexicographically.
func TestReleaseOrderDeterminism(t *testing.T) {
	env := carEnv(t)
	st := parseSelect(t, `SELECT color, COUNT(*) FROM tableA GROUP BY color WITH KEYS ["WHITE","SILVER","RED"];`)
	rels, err := ExecuteSelect(st, env)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"RED", "SILVER", "WHITE"}
	if len(rels) != len(wantOrder) {
		t.Fatalf("%d releases", len(rels))
	}
	for i, r := range rels {
		if r.Key.Str() != wantOrder[i] {
			t.Fatalf("release %d key %q, want %q", i, r.Key.Str(), wantOrder[i])
		}
	}

	// Streaming path, chunks folded in both arrival orders.
	inst := env["tableA"]
	plan := PlanPartial(st, "tableA", inst.Data.Schema, inst.Metas)
	if plan == nil {
		t.Fatal("statement must be eligible for pushdown")
	}
	half := inst.Data.Len() / 2
	a, b := table.New(inst.Data.Schema), table.New(inst.Data.Schema)
	for i := 0; i < inst.Data.Len(); i++ {
		if i < half {
			a.Append(inst.Data.Row(i))
		} else {
			b.Append(inst.Data.Row(i))
		}
	}
	for _, order := range [][]*table.Table{{a, b}, {b, a}} {
		merged := plan.NewState()
		for _, c := range order {
			s, err := plan.Partial(c, "camA")
			if err != nil {
				t.Fatal(err)
			}
			plan.Merge(merged, s)
		}
		got := plan.Finalize(merged)
		comparePartialReleases(t, 0, got, rels)
	}

	// Numeric keys: 10 sorts after 2 (numeric order), despite "n:10" <
	// "n:2" lexicographically.
	st2 := &query.SelectStmt{
		Agg:       query.AggExpr{Fun: query.AggCount, Star: true},
		From:      &query.TableRef{Name: "tableA"},
		GroupBy:   []string{"speed"},
		GroupKeys: []table.Value{table.N(10), table.N(2), table.N(-1)},
	}
	rels2, err := ExecuteSelect(st2, env)
	if err != nil {
		t.Fatal(err)
	}
	wantNum := []float64{-1, 2, 10}
	for i, r := range rels2 {
		if r.Key.Num() != wantNum[i] {
			t.Fatalf("numeric release %d key %v, want %v", i, r.Key.Num(), wantNum[i])
		}
	}
}

// TestPartialStateCodec pins the codec: exact round-trips including
// special floats, and graceful rejection of truncated or corrupt input.
func TestPartialStateCodec(t *testing.T) {
	s := &PartialState{
		Counts:  []int64{3, 0, 41},
		Sums:    []float64{1.25, math.NaN(), math.Inf(-1)},
		Rows:    44,
		Chunks:  7,
		CamRows: map[string]int64{"camB": 14, "camA": 30},
	}
	enc := s.EncodeBinary()
	dec, err := DecodePartialState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Counts) != 3 || dec.Counts[0] != 3 || dec.Counts[1] != 0 || dec.Counts[2] != 41 {
		t.Fatalf("counts %v", dec.Counts)
	}
	for i := range s.Sums {
		if !bitEq(dec.Sums[i], s.Sums[i]) {
			t.Fatalf("sum %d: %v vs %v", i, dec.Sums[i], s.Sums[i])
		}
	}
	if dec.Rows != 44 || dec.Chunks != 7 {
		t.Fatalf("tallies %d/%d", dec.Rows, dec.Chunks)
	}
	if len(dec.CamRows) != 2 || dec.CamRows["camA"] != 30 || dec.CamRows["camB"] != 14 {
		t.Fatalf("cam rows %v", dec.CamRows)
	}
	// Encoding is deterministic (sorted camera keys).
	if string(enc) != string(dec.EncodeBinary()) {
		t.Fatal("re-encoding diverged")
	}
	// A sum-less state round-trips with Sums == nil.
	dec2, err := DecodePartialState((&PartialState{Counts: []int64{1}}).EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Sums != nil || dec2.CamRows != nil {
		t.Fatalf("zero state grew fields: %+v", dec2)
	}
	// Every truncation must error, never panic.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodePartialState(enc[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodePartialState(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodePartialState(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// An absurd slot count must be rejected before allocating.
	huge := append([]byte(nil), enc[:5]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodePartialState(huge); err == nil {
		t.Fatal("oversized slot count accepted")
	}
}

// encodedTestPlans returns the two plan shapes the encoded-merge tests
// run against: an ungrouped COUNT (one slot, no sums) and a grouped
// range-clamped SUM (one slot per colour, sums).
func encodedTestPlans(tb testing.TB) (count, sum *PartialPlan) {
	tb.Helper()
	metas := []TableMeta{testMeta("tableA", "camA"), testMeta("tableA", "camB")}
	count = PlanPartial(&query.SelectStmt{
		Agg:  query.AggExpr{Fun: query.AggCount, Star: true},
		From: &query.TableRef{Name: "tableA"},
	}, "tableA", carSchema(), metas)
	sum = PlanPartial(benchStmt(), "tableA", carSchema(), metas)
	if count == nil || sum == nil {
		tb.Fatal("test plans must be eligible for pushdown")
	}
	return count, sum
}

// checkEncodedAgreesWithDecode is the contract between the two ways of
// consuming a payload, on any input: CompatibleEncoded and MergeEncoded
// accept raw exactly when DecodePartialState does and compatible
// accepts the result; an accepted merge equals Merge∘Decode bit for
// bit; a rejected one leaves dst untouched.
func checkEncodedAgreesWithDecode(tb testing.TB, plan *PartialPlan, raw []byte) {
	tb.Helper()
	dec, derr := DecodePartialState(raw)
	want := derr == nil && plan.compatible(dec)
	if got := plan.CompatibleEncoded(raw); got != want {
		tb.Fatalf("CompatibleEncoded = %v, Decode+compatible = %v (decode error: %v) on %x", got, want, derr, raw)
	}
	// A non-trivial accumulator: a rejected merge must not move it.
	dst := plan.NewState()
	for i := range dst.Counts {
		dst.Counts[i] = int64(i + 1)
	}
	for i := range dst.Sums {
		dst.Sums[i] = 0.25 * float64(i+1)
	}
	dst.Rows, dst.Chunks, dst.CamRows = 5, 2, map[string]int64{"camA": 5}
	before := cloneState(dst)
	err := plan.MergeEncoded(dst, raw)
	if (err == nil) != want {
		tb.Fatalf("MergeEncoded error %v, Decode+compatible = %v on %x", err, want, raw)
	}
	if err == nil {
		plan.Merge(before, dec)
	}
	if !sameState(dst, before) {
		tb.Fatalf("MergeEncoded (error %v) left %+v, want %+v on %x", err, dst, before, raw)
	}
}

// TestMergeEncodedRejects is the table test of the encoded path's
// validation: every truncation, trailing bytes, bad magic, unknown
// flags, oversized slot counts, out-of-order or duplicate cameras and
// every shape mismatch is rejected by CompatibleEncoded and
// MergeEncoded exactly as by DecodePartialState + compatible, with dst
// untouched — and none of it panics.
func TestMergeEncodedRejects(t *testing.T) {
	count, sum := encodedTestPlans(t)
	slots := sum.slots()
	full := &PartialState{
		Counts: make([]int64, slots), Sums: make([]float64, slots),
		Rows: 9, Chunks: 3,
		// camZ is not one of the plan's cameras: merged all the same.
		CamRows: map[string]int64{"camA": 4, "camB": 3, "camZ": 2},
	}
	for i := range full.Counts {
		full.Counts[i], full.Sums[i] = int64(10+i), []float64{1.5, math.NaN(), math.Copysign(0, -1), math.Inf(1)}[i%4]
	}
	enc := full.EncodeBinary()
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), enc...)) }
	camOff := stateHeaderLen + 16*slots + stateTallyLen // first camera entry

	cases := map[string][]byte{
		"valid":          enc,
		"valid count":    (&PartialState{Counts: []int64{7}, Rows: 7, Chunks: 1, CamRows: map[string]int64{"camB": 7}}).EncodeBinary(),
		"valid empty":    (&PartialState{Counts: []int64{0}, Chunks: 1}).EncodeBinary(),
		"empty input":    nil,
		"trailing byte":  mutate(func(b []byte) []byte { return append(b, 0) }),
		"bad magic":      mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"unknown flag":   mutate(func(b []byte) []byte { b[4] |= 2; return b }),
		"sums flag off":  mutate(func(b []byte) []byte { b[4] = 0; return b }),
		"huge slots":     mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:], 0x7fffffff); return b }),
		"max slots":      mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:], 0xffffffff); return b }),
		"one slot more":  mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[5:], uint32(slots+1)); return b }),
		"one slot fewer": (&PartialState{Counts: make([]int64, slots-1), Sums: make([]float64, slots-1)}).EncodeBinary(),
		"sum-less":       (&PartialState{Counts: make([]int64, slots)}).EncodeBinary(),
		"one cam more":   mutate(func(b []byte) []byte { b[camOff-2]++; return b }),
		"one cam fewer":  mutate(func(b []byte) []byte { b[camOff-2]--; return b }),
		"long cam name":  mutate(func(b []byte) []byte { b[camOff+1] = 0xff; return b }),
		// camA → camC sorts after camB; camA → camB duplicates it.
		"cams unordered": mutate(func(b []byte) []byte { b[camOff+2+3] = 'C'; return b }),
		"cams duplicate": mutate(func(b []byte) []byte { b[camOff+2+3] = 'B'; return b }),
	}
	for i := 0; i < len(enc); i++ {
		cases["truncated at "+strconv.Itoa(i)] = enc[:i]
	}
	accepted := map[*PartialPlan]int{}
	for name, raw := range cases {
		for _, plan := range []*PartialPlan{count, sum} {
			checkEncodedAgreesWithDecode(t, plan, raw)
			if plan.CompatibleEncoded(raw) {
				accepted[plan]++
				if name[:5] != "valid" {
					t.Errorf("%s: accepted", name)
				}
			}
		}
	}
	if accepted[count] != 2 || accepted[sum] != 1 {
		t.Fatalf("accepted %d count-shaped and %d sum-shaped payloads, want 2 and 1", accepted[count], accepted[sum])
	}
	// A dst that is not the plan's shape is an error, not a panic.
	if err := sum.MergeEncoded(count.NewState(), enc); err == nil {
		t.Fatal("merge into a mis-shaped dst accepted")
	}
	// The warm path's cost: nothing per merge once dst's camera map
	// holds the plan's cameras.
	dst := sum.NewState()
	plain := (&PartialState{Counts: full.Counts, Sums: full.Sums, Rows: 7, Chunks: 1, CamRows: map[string]int64{"camA": 4, "camB": 3}}).EncodeBinary()
	if allocs := testing.AllocsPerRun(100, func() {
		if !sum.CompatibleEncoded(plain) || sum.MergeEncoded(dst, plain) != nil {
			t.Fatal("valid payload rejected")
		}
	}); allocs != 0 {
		t.Fatalf("CompatibleEncoded+MergeEncoded allocate %v times per state, want 0", allocs)
	}
}

// TestPlanPartialEligibility pins the accept/decline matrix: mergeable
// single-table aggregations push down, everything whose semantics or
// error behavior is not chunk-distributive declines.
func TestPlanPartialEligibility(t *testing.T) {
	env := carEnv(t)
	inst := env["tableA"]
	try := func(sel string) *PartialPlan {
		t.Helper()
		st := parseSelect(t, sel)
		return PlanPartial(st, "tableA", inst.Data.Schema, inst.Metas)
	}
	accepts := []string{
		`SELECT COUNT(*) FROM tableA;`,
		`SELECT SUM(range(speed, 0, 60)) FROM tableA;`,
		`SELECT color, COUNT(*) FROM tableA GROUP BY color WITH KEYS ["RED","WHITE"];`,
		`SELECT ARGMAX(color) FROM tableA GROUP BY color WITH KEYS ["RED","WHITE"];`,
		`SELECT COUNT(*) FROM (SELECT bin(chunk, 100) AS b FROM tableA) GROUP BY b;`,
		`SELECT COUNT(*) FROM (SELECT plate FROM tableA WHERE speed > 50);`,
	}
	for _, sel := range accepts {
		if try(sel) == nil {
			t.Errorf("declined eligible statement %s", sel)
		}
	}
	declines := []string{
		`SELECT AVG(range(speed, 0, 60)) FROM tableA;`,                                      // not exactly mergeable
		`SELECT VAR(range(speed, 0, 60)) FROM tableA;`,                                      // not exactly mergeable
		`SELECT SUM(speed) FROM tableA;`,                                                    // missing range constraint: must error on the full path
		`SELECT COUNT(*) FROM (SELECT plate FROM tableA LIMIT 3);`,                          // LIMIT is order-dependent
		`SELECT COUNT(*) FROM (SELECT plate FROM tableA GROUP BY plate);`,                   // cross-chunk dedup
		`SELECT COUNT(*) FROM tableA GROUP BY color;`,                                       // WITH KEYS required: must error
		`SELECT COUNT(*) FROM (SELECT nope FROM tableA);`,                                   // unknown column: must error
		`SELECT COUNT(*) FROM (SELECT plate FROM tableA) UNION (SELECT plate FROM tableA);`, // not a single chain
	}
	for _, sel := range declines {
		if try(sel) != nil {
			t.Errorf("accepted ineligible statement %s", sel)
		}
	}

	// Accepted plans agree with the materialized path when the whole
	// table folds as a single chunk.
	for _, sel := range accepts {
		st := parseSelect(t, sel)
		plan := PlanPartial(st, "tableA", inst.Data.Schema, inst.Metas)
		s, err := plan.Partial(inst.Data, "camA")
		if err != nil {
			t.Fatalf("%s: fold: %v", sel, err)
		}
		want, err := ExecuteSelect(st, env)
		if err != nil {
			t.Fatalf("%s: execute: %v", sel, err)
		}
		comparePartialReleases(t, 0, plan.Finalize(s), want)
	}
}

// TestFoldEncodedStampedChunks: the engine's fold-to-bytes path equals
// Partial(chunk, camera).EncodeBinary() byte for byte on chunks stamped
// the way the engine stamps them (the block appended with its chunk,
// region and camera columns), for COUNT, grouped COUNT and SUM over
// range(), chains filtering on each implicit column, a two-camera
// table and empty chunks, with one scratch state reused throughout.
func TestFoldEncodedStampedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := table.MustSchema(
		table.Column{Name: "plate", Type: table.DString, Default: table.S("")},
		table.Column{Name: "color", Type: table.DString, Default: table.S("")},
		table.Column{Name: "speed", Type: table.DNumber, Default: table.N(0)},
	)
	full := base.WithImplicitCols(true, true)
	metas := []TableMeta{testMeta("tableA", "camA"), testMeta("tableA", "camB")}
	start := metas[0].Begin.Unix()
	var scratch PartialState
	for _, sel := range []string{
		`SELECT COUNT(*) FROM tableA;`,
		`SELECT color, COUNT(*) FROM tableA GROUP BY color WITH KEYS ["RED","WHITE","42"];`,
		`SELECT SUM(range(speed, 0, 60)) FROM tableA;`,
		`SELECT color, SUM(range(speed, 0, 5)) FROM tableA GROUP BY color WITH KEYS ["RED","SILVER"];`,
		`SELECT COUNT(*) FROM (SELECT bin(chunk, 100) AS b FROM tableA) GROUP BY b;`,
		fmt.Sprintf(`SELECT COUNT(*) FROM (SELECT * FROM tableA WHERE chunk >= %d);`, start+100),
		`SELECT SUM(range(speed, 0, 60)) FROM (SELECT * FROM tableA WHERE region = "north");`,
		`SELECT color, COUNT(*) FROM (SELECT * FROM tableA WHERE camera = "camB") GROUP BY color WITH KEYS ["RED","WHITE"];`,
	} {
		st := parseSelect(t, sel)
		plan := PlanPartial(st, "tableA", full, metas)
		if plan == nil {
			t.Fatalf("%s: declined pushdown", sel)
		}
		for c := 0; c < 60; c++ {
			blk := table.New(base)
			for r := rng.Intn(4); r > 0 && c%7 != 0; r-- { // every 7th chunk is empty
				blk.Append(table.Row{
					table.S(diffStrings[rng.Intn(len(diffStrings))]),
					table.S([]string{"RED", "WHITE", "SILVER", "42"}[rng.Intn(4)]),
					table.N(diffNum(rng)),
				})
			}
			cam := metas[c%2].Camera
			stamped := table.New(full)
			stamped.AppendBlock(blk.Freeze(), table.N(float64(start+int64(c)*5)), table.S([]string{"north", "south"}[rng.Intn(2)]), table.S(cam))
			s, err := plan.Partial(stamped, cam)
			if err != nil {
				t.Fatalf("%s: chunk %d: %v", sel, c, err)
			}
			want := s.EncodeBinary()
			if got, err := plan.FoldEncoded(stamped, cam, &scratch); err != nil || string(got) != string(want) {
				t.Fatalf("%s: chunk %d: FoldEncoded = %x, %v; want %x", sel, c, got, err, want)
			}
		}
	}
}
