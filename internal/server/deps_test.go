package server

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestServiceImportsNoSimulator: the service's non-test import closure
// holds the engine and none of the reproduction's test rig. Privid's
// guarantee rests on admission, the sensitivity rules and the noise
// alone, whatever the video shows, so the synthetic scenes, the CV
// pipeline, the taxi fleet, the chaos sim, the experiments and the
// harness must stay out of what the server trusts.
func TestServiceImportsNoSimulator(t *testing.T) {
	const module = "privid/"
	via := map[string]string{} // package -> the package that imports it
	var walk func(pkg, from string)
	walk = func(pkg, from string) {
		if _, seen := via[pkg]; seen || !strings.HasPrefix(pkg, module) {
			return
		}
		via[pkg] = from
		p, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(pkg, module)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			walk(imp, pkg)
		}
	}
	walk(module+"internal/server", "")
	for _, want := range []string{"core", "store", "dp", "rel"} {
		if _, ok := via[module+"internal/"+want]; !ok {
			t.Errorf("closure lacks internal/%s: the walk is not following imports", want)
		}
	}
	for _, bad := range []string{"scene", "cv", "taxi", "sim", "experiments", "harness"} {
		pkg := module + "internal/" + bad
		if _, ok := via[pkg]; !ok {
			continue
		}
		chain := pkg
		for p := via[pkg]; p != ""; p = via[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("the service imports internal/%s: %s", bad, chain)
	}
}
