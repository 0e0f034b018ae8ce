// Trafficplanner: highway analytics with both of Privid's utility
// optimizations — Listing 1's speed/color queries, plus spatial
// splitting (§7.2) to compare the two travel directions.
package main

import (
	"fmt"
	"log"
	"time"

	"privid"
)

func main() {
	const window = 2 * time.Hour
	profile := privid.HighwayProfile()

	engine := privid.New(privid.Options{Seed: 11})
	err := engine.RegisterCamera(privid.CameraConfig{
		Name:    "highway",
		Source:  privid.NewSceneCamera("highway", profile, 3, window),
		Policy:  privid.Policy{Rho: 90 * time.Second, K: 1},
		Epsilon: 10,
		// The owner registers the per-direction splitting scheme; the
		// boundary is hard (cars never switch directions mid-frame).
		Schemes: profile.FrameSchemes(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The analyst's model: read each detected car's plate, color and
	// speed — the model.py of Listing 1.
	err = engine.Registry().Register("carmodel", func(chunk *privid.Chunk) []privid.Row {
		seen := map[string]bool{}
		var rows []privid.Row
		for f := int64(0); f < chunk.Len(); f += 5 {
			for _, o := range chunk.Frame(f).Objects {
				if o.Plate == "" || seen[o.Plate] {
					continue
				}
				seen[o.Plate] = true
				rows = append(rows, privid.Row{
					privid.S(o.Plate), privid.S(o.Color), privid.N(o.Speed),
				})
			}
		}
		return rows
	})
	if err != nil {
		log.Fatal(err)
	}

	// Listing 1: average speed + unique cars per color.
	prog, err := privid.Parse(`
SPLIT highway BEGIN 3-15-2021/6:00am END 3-15-2021/8:00am
    BY TIME 5sec STRIDE 0sec INTO chunksA;
PROCESS chunksA USING carmodel TIMEOUT 5sec PRODUCING 10 ROWS
    WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tableA;

/* S1: average speed of all cars */
SELECT AVG(range(speed, 30, 60)) FROM tableA CONSUMING 0.5;

/* S2: count unique cars of each color */
SELECT color, COUNT(plate) FROM
    (SELECT plate, color FROM tableA GROUP BY plate)
    GROUP BY color WITH KEYS ["RED", "WHITE", "SILVER"] CONSUMING 1;`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Execute(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Listing-1 queries:")
	for _, r := range res.Releases {
		fmt.Printf("  %-28s = %8.1f  (noise scale %.2f)\n", r.Desc, r.Value, r.NoiseScale)
	}

	// Spatial splitting: per-direction volumes from one query. The
	// region column is created by Privid and therefore trusted.
	// PRODUCING must cover the concurrent cars per region — including
	// the shoulder's long-parked cars, which otherwise crowd moving
	// traffic out of the row budget (the §7.1 masking optimization
	// exists precisely to remove them; see examples/maskstudio).
	prog2, err := privid.Parse(`
SPLIT highway BEGIN 3-15-2021/6:00am END 3-15-2021/8:00am
    BY TIME 30sec STRIDE 0sec BY REGION directions INTO chunksB;
PROCESS chunksB USING carmodel TIMEOUT 5sec PRODUCING 90 ROWS
    WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tableB;
SELECT region, COUNT(plate) FROM
    (SELECT plate, region FROM tableB GROUP BY plate)
    GROUP BY region WITH KEYS ["eastbound", "westbound"] CONSUMING 1;`)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := engine.Execute(prog2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-direction unique cars (spatial splitting):")
	for _, r := range res2.Releases {
		fmt.Printf("  %-28s = %8.0f\n", r.Desc, r.Value)
	}
	fmt.Printf("total budget consumed: %.2f\n", res.EpsilonSpent+res2.EpsilonSpent)
}
