package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The size ledger: per package of the module, non-test lines, test
// lines (both as `wc -l` counts them) and exported top-level symbols,
// plus the same non-test totals over the service's import closure. It
// sits in the benchmark snapshot next to the perf contract so that
// growth, like a perf regression, is a decision someone reviewed:
// `-size <dir>` prints the table, and with `-baseline` fails when a
// package or the service outgrows the ceiling the snapshot recorded.

// serviceRoot is the package whose non-test import closure is the
// service: the code a running server trusts.
const serviceRoot = "internal/server"

// pkgSize is one package's row of the size table.
type pkgSize struct {
	LOC      int `json:"loc"`
	TestLOC  int `json:"test_loc"`
	Exported int `json:"exported"`
}

// sizeTable is the snapshot's "size" section: rows keyed by the
// package's directory relative to the module root ("." for the root),
// and the sum of the rows of serviceRoot's non-test import closure.
type sizeTable struct {
	Packages map[string]pkgSize `json:"packages"`
	Service  pkgSize            `json:"service"`
	service  []string           // the closure's packages
}

func (s *pkgSize) add(row pkgSize) {
	s.LOC += row.LOC
	s.TestLOC += row.TestLOC
	s.Exported += row.Exported
}

// measureSizes walks the module rooted at root. Nested modules (bench/
// has its own go.mod), testdata and dot- or underscore-prefixed
// directories are not part of it.
func measureSizes(root string) (sizeTable, error) {
	t := sizeTable{Packages: map[string]pkgSize{}}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return t, err
	}
	module := "" // the path whose packages are the module's
	if m := regexp.MustCompile(`(?m)^module\s+"?([^\s"]+)`).FindSubmatch(mod); m != nil {
		module = string(m[1])
	}
	imports := map[string][]string{} // package -> module packages its non-test files import
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		row := t.Packages[key]
		lines := bytes.Count(src, []byte("\n"))
		if strings.HasSuffix(name, "_test.go") {
			row.TestLOC += lines
		} else {
			row.LOC += lines
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			row.Exported += exportedSymbols(f)
			for _, imp := range f.Imports {
				// The root package imports the service, so the closure
				// never holds it: only module+"/" paths matter.
				if dep, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module+"/"); ok {
					imports[key] = append(imports[key], dep)
				}
			}
		}
		t.Packages[key] = row
		return nil
	})
	if err != nil {
		return t, err
	}
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		row, ok := t.Packages[pkg]
		if seen[pkg] || !ok {
			return
		}
		seen[pkg] = true
		t.service = append(t.service, pkg)
		t.Service.add(row)
		for _, dep := range imports[pkg] {
			visit(dep)
		}
	}
	visit(serviceRoot)
	return t, nil
}

// exportedSymbols counts a file's exported top-level names: functions,
// methods on exported types, types, constants and variables.
func exportedSymbols(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv)) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method's receiver base type is
// exported (a method on an unexported type is not part of the API).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// runSize implements -size: print the measured table, or with a
// baseline compare it against the snapshot's and report whether every
// package is within its ceilings.
func runSize(root, baselinePath string) (ok bool, err error) {
	got, err := measureSizes(root)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(got.Packages))
	for name := range got.Packages {
		names = append(names, name)
	}
	sort.Strings(names)
	var module pkgSize
	for _, name := range names {
		module.add(got.Packages[name])
	}
	if baselinePath == "" {
		// One row per line, ready to paste into the snapshot.
		fmt.Println(`"size": {"packages": {`)
		for i, name := range names {
			row, _ := json.Marshal(got.Packages[name]) // a struct of ints cannot fail
			sep := ","
			if i == len(names)-1 {
				sep = ""
			}
			fmt.Printf("  %q: %s%s\n", name, row, sep)
		}
		service, _ := json.Marshal(got.Service)
		fmt.Printf("},\n\"service\": %s}\n", service)
		fmt.Fprintf(os.Stderr, "module: %d packages, %d lines, %d exported; service (%s and its imports): %d packages, %d lines, %d exported\n",
			len(names), module.LOC, module.Exported, serviceRoot, len(got.service), got.Service.LOC, got.Service.Exported)
		return true, nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	var base struct {
		Snapshot string    `json:"snapshot"`
		Size     sizeTable `json:"size"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("%s: %w", baselinePath, err)
	}
	if len(base.Size.Packages) == 0 {
		return false, fmt.Errorf("%s: no size.packages — nothing to enforce", baselinePath)
	}
	failed := 0
	fmt.Printf("     %-28s %6s %8s %8s   (ceilings from %s)\n", "package", "loc", "test_loc", "exported", base.Snapshot)
	for _, name := range names {
		g := got.Packages[name]
		status, detail := "ok  ", ""
		switch b, recorded := base.Size.Packages[name]; {
		case !recorded:
			status, detail = "FAIL", "not in the snapshot"
		case g.LOC > b.LOC || g.Exported > b.Exported:
			status, detail = "FAIL", fmt.Sprintf("ceiling loc %d, exported %d", b.LOC, b.Exported)
		}
		if status == "FAIL" {
			failed++
		}
		fmt.Printf("%s %-28s %6d %8d %8d   %s\n", status, name, g.LOC, g.TestLOC, g.Exported, detail)
	}
	fmt.Printf("     %-28s %6d %8s %8d\n", fmt.Sprintf("module (%d packages)", len(names)), module.LOC, "", module.Exported)
	status, detail := "ok  ", ""
	if b := base.Size.Service; got.Service.LOC > b.LOC || got.Service.Exported > b.Exported {
		status, detail = "FAIL", fmt.Sprintf("ceiling loc %d, exported %d", b.LOC, b.Exported)
		failed++
	}
	fmt.Printf("%s %-28s %6d %8s %8d   %s\n", status, fmt.Sprintf("service (%d packages)", len(got.service)), got.Service.LOC, "", got.Service.Exported, detail)
	if failed > 0 {
		fmt.Printf("\n%d rows outgrew their recorded size; shrink them or re-record the size section of %s (privid-benchdiff -size %s) in the same change\n",
			failed, baselinePath, root)
		return false, nil
	}
	fmt.Printf("\nall %d packages and the service within the sizes recorded in %s\n", len(names), base.Snapshot)
	return true, nil
}
