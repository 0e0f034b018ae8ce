package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The size table counts lines the way `wc -l` does, splits test files
// from the rest, counts exported top-level names and methods of
// exported types only, and stays inside the module: nested modules and
// testdata are someone else's.
func TestMeasureSizes(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) { writeFile(t, filepath.Join(root, rel), src) }
	write("go.mod", "module m\n")
	write("a.go", "package m\n\nconst A, b = 1, 2\n\nvar C int\n\ntype T struct{}\n\ntype u struct{}\n\nfunc F() {}\n\nfunc g() {}\n\nfunc (T) M() {}\n\nfunc (*u) N() {}\n")
	write("a_test.go", "package m\n\nfunc TestX() {}\n")
	write("sub/s.go", "package sub\n")
	write("sub/testdata/x.go", "package ignored\n\nfunc Ignored() {}\n")
	write("nested/go.mod", "module nested\n")
	write("nested/n.go", "package nested\n\nfunc Ignored() {}\n")
	write(".hidden/h.go", "package hidden\n")

	got, err := measureSizes(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]pkgSize{
		".":   {LOC: 17, TestLOC: 3, Exported: 5}, // A, C, T, F, T.M
		"sub": {LOC: 1},
	}
	if len(got.Packages) != len(want) {
		t.Fatalf("packages = %v, want %v", got.Packages, want)
	}
	for name, w := range want {
		if got.Packages[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got.Packages[name], w)
		}
	}
}

func writeFile(t *testing.T, path, src string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The service row sums the rows of internal/server's non-test import
// closure: a package only its tests import, or nothing imports, is not
// in it. The baseline gate fails when the service outgrows its row.
func TestServiceSize(t *testing.T) {
	root := t.TempDir()
	for rel, src := range map[string]string{
		"go.mod":                    "module m\n",
		"internal/server/s.go":      "package server\n\nimport (\n\t\"fmt\"\n\n\t\"m/internal/core\"\n)\n\nvar _ = fmt.Sprint\n\nfunc Serve() { core.Run() }\n",
		"internal/server/s_test.go": "package server\n\nimport _ \"m/internal/scene\"\n",
		"internal/core/c.go":        "package core\n\nimport _ \"m/internal/geom\"\n\nfunc Run() {}\n",
		"internal/geom/g.go":        "package geom\n\ntype Rect struct{}\n",
		"internal/scene/sc.go":      "package scene\n\nimport _ \"m/internal/core\"\n\nfunc Generate() {}\n",
	} {
		writeFile(t, filepath.Join(root, rel), src)
	}
	got, err := measureSizes(root)
	if err != nil {
		t.Fatal(err)
	}
	want := pkgSize{LOC: 11 + 5 + 3, TestLOC: 3, Exported: 3} // server, core, geom: Serve, Run, Rect
	if got.Service != want || len(got.service) != 3 {
		t.Fatalf("service = %+v over %v, want %+v over server, core and geom", got.Service, got.service, want)
	}

	snapshot := func(service pkgSize) string {
		raw, err := json.Marshal(map[string]any{"snapshot": "T", "size": sizeTable{Packages: got.Packages, Service: service}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH.json")
		writeFile(t, path, string(raw))
		return path
	}
	for _, tc := range []struct {
		service pkgSize
		ok      bool
	}{
		{want, true},
		{pkgSize{LOC: want.LOC - 1, Exported: want.Exported}, false},
		{pkgSize{LOC: want.LOC, Exported: want.Exported - 1}, false},
	} {
		if ok, err := runSize(root, snapshot(tc.service)); err != nil || ok != tc.ok {
			t.Errorf("service ceiling %+v: ok = %v (err %v), want %v", tc.service, ok, err, tc.ok)
		}
	}
}
