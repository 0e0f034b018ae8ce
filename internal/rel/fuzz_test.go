package rel

import (
	"encoding/binary"
	"math"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

// FuzzPartialStateDecode feeds arbitrary bytes to both consumers of the
// PPS1 codec — DecodePartialState and the encoded merge the engine's
// warm path uses — which the disk cache tier can hand torn or corrupted
// payloads. Neither may panic; they must accept exactly the same
// inputs; an accepted payload must merge identically both ways and
// re-encode to itself (the encoding is canonical).
func FuzzPartialStateDecode(f *testing.F) {
	count, sum := encodedTestPlans(f)
	slots := sum.slots()
	f.Add((&PartialState{Counts: []int64{3}, Rows: 3, Chunks: 1, CamRows: map[string]int64{"camA": 3}}).EncodeBinary())
	f.Add((&PartialState{Counts: []int64{0}, Chunks: 1}).EncodeBinary())
	f.Add((&PartialState{
		Counts: make([]int64, slots), Sums: append(make([]float64, slots-2), math.NaN(), math.Copysign(0, -1)),
		Rows: 4, Chunks: 2, CamRows: map[string]int64{"camA": 1, "camB": 2, "other": 1},
	}).EncodeBinary())
	f.Add([]byte("PPS1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkEncodedAgreesWithDecode(t, count, raw)
		checkEncodedAgreesWithDecode(t, sum, raw)
		if dec, err := DecodePartialState(raw); err == nil {
			if again := dec.EncodeBinary(); string(again) != string(raw) {
				t.Fatalf("accepted payload is not canonical:\n%x\n%x", raw, again)
			}
		}
	})
}

// FuzzClampedAggregates feeds arbitrary float64 bit patterns — NaN,
// ±Inf, subnormals, ±1e308 — into a summed column. The declared range
// is a privacy constraint, so every SUM, AVG and VAR must come out
// finite whatever the executable emitted, and the pushdown fold, the
// materialised aggregate and the row-major oracle must agree bit for
// bit.
func FuzzClampedAggregates(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(0.0, 60.0, bits(math.NaN(), 42, math.Inf(1), math.Inf(-1), 1e308, -1e308, 5e-324, math.Copysign(0, -1)))
	f.Add(-5.0, 5.0, bits(math.NaN(), math.NaN(), math.NaN()))
	f.Add(-1e150, 1e150, bits(1e308, -1e308, 3, math.NaN()))
	f.Add(2.0, 2.0, bits(math.Inf(-1), 7))
	f.Fuzz(func(t *testing.T, lo, hi float64, raw []byte) {
		// A range is a query literal: finite and ordered. The bounds keep
		// a finite result representable: VAR squares deviations of up to
		// 256 rows.
		if !(lo <= hi) || math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 || len(raw) > 8*256 {
			t.Skip()
		}
		meta := testMeta("tableA", "camA")
		tbl := table.New(carSchema())
		colors := []string{"RED", "WHITE"}
		for i := 0; i+8 <= len(raw); i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			tbl.Append(table.Row{table.S("P"), table.S(colors[i/8%2]), table.N(x), table.N(float64(meta.Begin.Unix() + int64(i/8)))})
		}
		env := Env{"tableA": NewInstance(tbl, meta)}
		arg := &query.CallExpr{Name: "range", Args: []query.Expr{&query.ColRef{Name: "speed"}, &query.NumLit{V: lo}, &query.NumLit{V: hi}}}
		for _, fun := range []query.AggFun{query.AggSum, query.AggAvg, query.AggVar} {
			for _, grouped := range []bool{false, true} {
				st := &query.SelectStmt{Agg: query.AggExpr{Fun: fun, Arg: arg}, From: &query.TableRef{Name: "tableA"}}
				if grouped {
					st.GroupBy, st.GroupKeys = []string{"color"}, []table.Value{table.S("RED"), table.S("WHITE")}
				}
				want, err := oracleExecuteSelect(st, env)
				if err != nil {
					t.Fatalf("%v: oracle: %v", fun, err)
				}
				for _, r := range want {
					if math.IsNaN(r.Raw) || math.IsInf(r.Raw, 0) {
						t.Fatalf("%s released %v from range [%v, %v]", r.Desc, r.Raw, lo, hi)
					}
				}
				got, err := ExecuteSelect(st, env)
				if err != nil {
					t.Fatalf("%v: %v", fun, err)
				}
				comparePartialReleases(t, 0, got, want)
				if plan := PlanPartial(st, "tableA", tbl.Schema, []TableMeta{meta}); plan != nil {
					s, err := plan.Partial(tbl, meta.Camera)
					if err != nil {
						t.Fatalf("%v: fold: %v", fun, err)
					}
					comparePartialReleases(t, 0, plan.Finalize(s), want)
				}
			}
		}
	})
}
