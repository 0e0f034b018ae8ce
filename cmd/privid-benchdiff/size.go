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
	"sort"
	"strings"
)

// The size ledger: per package of the module, non-test lines, test
// lines (both as `wc -l` counts them) and exported top-level symbols.
// It sits in the benchmark snapshot next to the perf contract so that
// growth, like a perf regression, is a decision someone reviewed:
// `-size <dir>` prints the table, and with `-baseline` fails when a
// package outgrows the ceiling the snapshot recorded for it.

// pkgSize is one package's row of the size table.
type pkgSize struct {
	LOC      int `json:"loc"`
	TestLOC  int `json:"test_loc"`
	Exported int `json:"exported"`
}

// sizeTable is the snapshot's "size" section: rows keyed by the
// package's directory relative to the module root ("." for the root).
type sizeTable struct {
	Packages map[string]pkgSize `json:"packages"`
}

// measureSizes walks the module rooted at root. Nested modules (bench/
// has its own go.mod), testdata and dot- or underscore-prefixed
// directories are not part of it.
func measureSizes(root string) (sizeTable, error) {
	t := sizeTable{Packages: map[string]pkgSize{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		}
		t.Packages[key] = row
		return nil
	})
	return t, err
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
		fmt.Println("}}")
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
	if failed > 0 {
		fmt.Printf("\n%d packages outgrew their recorded size; shrink them or re-record the size section of %s (privid-benchdiff -size %s) in the same change\n",
			failed, baselinePath, root)
		return false, nil
	}
	fmt.Printf("\nall %d packages within the sizes recorded in %s\n", len(names), base.Snapshot)
	return true, nil
}
