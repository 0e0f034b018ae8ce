package rel

import (
	"fmt"
	"math/rand"
	"testing"

	"privid/internal/query"
	"privid/internal/table"
)

// TestSensitivityDataIndependence pins the property the whole threat
// model rests on: everything about a query's releases except their
// values — how many there are, their descriptions, keys and order, their
// sensitivities, their windows, the cameras they charge and over which
// spans — must depend only on trusted metadata (chunking, max_rows,
// policy, the query text) and NEVER on table contents, which the
// analyst's executable controls. We run the same queries over many
// randomized table fillings, the empty table included, on both the
// materialized and the pushdown path, and require identical skeletons
// (sensitivities bit for bit).
func TestSensitivityDataIndependence(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*) FROM tableA;`,
		`SELECT AVG(range(speed, 30, 60)) FROM tableA;`,
		`SELECT SUM(range(speed, 0, 100)) FROM (SELECT speed FROM tableA WHERE speed > 10);`,
		`SELECT color, COUNT(plate) FROM (SELECT plate, color FROM tableA GROUP BY plate)
		   GROUP BY color WITH KEYS ["RED", "WHITE"];`,
		`SELECT VAR(range(speed, 0, 80)) FROM (SELECT speed FROM tableA LIMIT 50);`,
	}
	meta := testMeta("tableA", "camA")
	base := float64(meta.Begin.Unix())

	fill := func(seed int64, rows int) *table.Table {
		rng := rand.New(rand.NewSource(seed))
		tbl := table.New(carSchema())
		colors := []string{"RED", "WHITE", "SILVER", "BLACK", "zzz", ""}
		for i := 0; i < rows; i++ {
			tbl.Append(table.Row{
				table.S(randPlate(rng)),
				table.S(colors[rng.Intn(len(colors))]),
				table.N(rng.Float64()*500 - 100), // wildly out-of-range values
				table.N(base + float64(rng.Intn(500))),
			})
		}
		return tbl
	}
	var fillings []Env // seed 0 is the empty table
	for seed := int64(0); seed < 8; seed++ {
		fillings = append(fillings, Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: fill(seed, int(seed)*37%200)}})
	}
	for qi, q := range queries {
		st := parseSelect(t, q)
		if _, err := ExecuteSelect(st, fillings[0]); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		checkSkeletonIndependence(t, fmt.Sprintf("query %d", qi), st, fillings)
	}

	// Every statement shape the differential generator produces,
	// rejected ones included (a rejection must not move with data
	// either).
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		first := diffEnv(rng)
		from, cols := diffSchemaPreserving(rng, rng.Intn(3))
		st := diffSelectStmt(rng, from, cols)
		fillings := []Env{first, emptied(first)}
		for f := int64(1); f < 8; f++ {
			fillings = append(fillings, diffEnv(rand.New(rand.NewSource(seed*8+f))))
		}
		checkSkeletonIndependence(t, fmt.Sprintf("generated seed %d", seed), st, fillings)
	}
}

// checkSkeletonIndependence requires st to produce the same outcome —
// the same rejection, or the same release skeleton — over every filling,
// from ExecuteSelect and, where the statement is eligible, from
// PlanPartial→Finalize.
func checkSkeletonIndependence(t *testing.T, label string, st *query.SelectStmt, fillings []Env) {
	t.Helper()
	var want string
	for i, env := range fillings {
		rels, err := ExecuteSelect(st, env)
		got := errText(err) + "\n" + skeleton(rels)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("%s, filling %d: outcome changed with data — data dependence leaked\n got %s\nwant %s", label, i, got, want)
		}
		if ps, ok := pushdownSkeleton(t, st, env); ok && errText(err)+"\n"+ps != want {
			t.Fatalf("%s, filling %d: pushdown skeleton diverges\n got %s\nwant %s", label, i, ps, want)
		}
	}
}

func randPlate(rng *rand.Rand) string {
	const letters = "ABCDEFGH"
	b := make([]byte, 3)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestReleaseCountDataIndependence: the *number* of releases (and
// their keys) must also be data-independent — that is why WITH KEYS
// exists and why bucket enumeration covers empty buckets.
func TestReleaseCountDataIndependence(t *testing.T) {
	st := parseSelect(t, `SELECT COUNT(*) FROM (SELECT bin(chunk, 100) AS b FROM tableA) GROUP BY b;`)
	meta := testMeta("tableA", "camA")
	base := float64(meta.Begin.Unix())

	// Empty table vs table with rows in only one bucket: same release
	// keys either way.
	empty := Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: table.New(carSchema())}}
	one := table.New(carSchema())
	one.Append(table.Row{table.S("AAA"), table.S("RED"), table.N(42), table.N(base + 250)})
	withRow := Env{"tableA": &Instance{Metas: []TableMeta{meta}, Data: one}}

	re, err := ExecuteSelect(st, empty)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ExecuteSelect(st, withRow)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != len(rw) {
		t.Fatalf("release counts differ with data: %d vs %d", len(re), len(rw))
	}
	for i := range re {
		if !re[i].Key.Equal(rw[i].Key) {
			t.Errorf("release %d keys differ: %v vs %v", i, re[i].Key, rw[i].Key)
		}
	}
}
