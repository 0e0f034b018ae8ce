package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// The exposition's family list — every privid_* name with its help
// string and type, in registration order — is an operator-facing
// contract (dashboards and alerts key on it), and which families exist
// depends on the engine's shape: the disk-tier families only with a
// disk tier, the singleflight families only with a cache, the WAL
// families only with a state dir. Pin all four shapes byte for byte.
func TestMetricFamiliesGolden(t *testing.T) {
	shapes := []struct {
		name string
		opts func(dir string) Options
	}{
		{"ram_only", func(string) Options { return Options{} }},
		{"ram_and_disk", func(dir string) Options { return Options{DiskCacheDir: filepath.Join(dir, "chunks")} }},
		{"cache_disabled", func(string) Options { return Options{ChunkCacheBytes: -1} }},
		{"durable", func(dir string) Options { return Options{StateDir: filepath.Join(dir, "state")} }},
	}
	var got strings.Builder
	for _, shape := range shapes {
		e, err := Open(shape.opts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := e.Metrics().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + shape.name + "\n")
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
				got.WriteString(line + "\n")
			}
		}
	}
	golden := filepath.Join("testdata", "metric_families.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("metric families drifted from %s (rerun with -update if intended):\n%s", golden, firstDiff(string(want), got.String()))
	}
}

// firstDiff shows the first line at which two texts part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
