package experiments

import (
	"time"

	"privid/internal/region"
	"privid/internal/scene"
	"privid/internal/vtime"
)

// runTable2 reproduces Table 2: splitting the frame into the owner's
// regions (crosswalks / highway directions) reduces the maximum number
// of distinct objects any single chunk can contain, and therefore the
// output range the noise must cover.
func runTable2(cfg Config) (*Summary, error) {
	sum := newSummary()
	cfg.printf("Table 2: spatial splitting output-range reduction\n")
	cfg.printf("%-10s %12s %12s %10s\n", "video", "max(frame)", "max(region)", "reduction")
	window := cfg.window()
	if window > 2*time.Hour {
		window = 2 * time.Hour
	}
	for _, p := range []scene.Profile{scene.Campus(), scene.Highway(), scene.Urban()} {
		if len(p.Schemes) == 0 {
			continue
		}
		s := sceneFor(p, cfg.Seed, window)
		src := s.Source(p.Name)
		sch := p.FrameSchemes()[p.Schemes[0].Name]
		chunkFrames := int64(p.FPS) * 30
		a := region.Analyze(src, sch, vtime.NewInterval(0, s.Frames), chunkFrames, int64(p.FPS))
		cfg.printf("%-10s %12d %12d %9.2fx\n", p.Name, a.FrameMax, a.RegionMax, a.Reduction())
		sum.set("frame_"+p.Name, float64(a.FrameMax))
		sum.set("region_"+p.Name, float64(a.RegionMax))
		sum.set("reduction_"+p.Name, a.Reduction())
	}
	return sum, nil
}
