package main

import (
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
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
