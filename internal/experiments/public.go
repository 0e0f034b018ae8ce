package experiments

import (
	"fmt"
	"time"

	"privid/internal/core"
	"privid/internal/scene"
)

// NewEvalEngine returns an engine with the three paper cameras
// (campus, highway, urban) registered — policies calibrated from
// historical scene data, mask ladders published ("linger", "light"),
// and region schemes installed — plus the standard analyst executables
// used throughout the evaluation:
//
//	entrants_<video>  — one row per object entering during the chunk
//	trees             — one row per tree with its foliage state (0/100)
//	redlight          — one row with the chunk's mean red-phase length
//	south2north       — one row with the count of south→north walkers
//
// It backs cmd/privid so ad-hoc queries can run against the synthetic
// deployment.
func NewEvalEngine(cfg Config) (*core.Engine, error) {
	e := newEngine(cfg)
	profiles := []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()}
	for _, p := range profiles {
		cs := setupCamera(p, cfg.Seed, cfg.window())
		if err := registerSceneCamera(e, cs); err != nil {
			return nil, err
		}
		if err := e.Registry().Register("entrants_"+p.Name, entrantCounter(p, cfg.Seed)); err != nil {
			return nil, err
		}
	}
	if err := e.Registry().Register("trees", treeReader()); err != nil {
		return nil, err
	}
	if err := e.Registry().Register("redlight", redLightMeter(profiles[0].FPS)); err != nil {
		return nil, err
	}
	if err := e.Registry().Register("south2north", south2north(profiles[0], cfg.Seed)); err != nil {
		return nil, err
	}
	return e, nil
}

// EvalWindow returns the [begin, end) wall-clock window the evaluation
// cameras cover at the given scale, for building query text.
func EvalWindow(cfg Config) (time.Time, time.Time) {
	start := scene.DefaultStart
	return start, start.Add(cfg.window())
}

// FormatTimestamp renders a time in the query language's literal
// format.
func FormatTimestamp(t time.Time) string { return fmtTS(t) }

// DescribeEngine prints the registered cameras' policies for the CLI.
func DescribeEngine(cfg Config) string {
	out := ""
	for _, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		cs := setupCamera(p, cfg.Seed, cfg.window())
		out += fmt.Sprintf("camera %-8s policy %v; masks:", p.Name, cs.policy)
		for _, e := range cs.policyMap.Entries {
			out += fmt.Sprintf(" %s->%v", e.ID, e.Policy)
		}
		out += "\n"
	}
	return out
}
