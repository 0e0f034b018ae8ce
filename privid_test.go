package privid_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"privid"
	"privid/internal/query"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart describes: owner registration, analyst code, query,
// noisy releases, budget consumption.
func TestFacadeEndToEnd(t *testing.T) {
	engine := privid.New(privid.Options{Seed: 1, Evaluation: true})
	src := privid.NewSceneCamera("campus", privid.CampusProfile(), 7, time.Hour)
	if err := engine.RegisterCamera(privid.CameraConfig{
		Name:    "campus",
		Source:  src,
		Policy:  privid.Policy{Rho: time.Minute, K: 2},
		Epsilon: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Registry().Register("headcount", func(chunk *privid.Chunk) []privid.Row {
		n := 0
		for _, o := range chunk.Frame(chunk.Len() / 2).Objects {
			if o.EntityID >= 0 {
				n++
			}
		}
		return []privid.Row{{privid.N(float64(n))}}
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := privid.Parse(`
SPLIT campus BEGIN 3-15-2021/6:00am END 3-15-2021/7:00am
  BY TIME 30sec STRIDE 0sec INTO c;
PROCESS c USING headcount TIMEOUT 5sec PRODUCING 1 ROWS
  WITH SCHEMA (n:NUMBER=0) INTO t;
SELECT AVG(range(n, 0, 30)) FROM t CONSUMING 1;`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Releases) != 1 {
		t.Fatalf("%d releases", len(res.Releases))
	}
	r := res.Releases[0]
	if !r.RawSet {
		t.Fatalf("evaluation mode should expose raw values")
	}
	if r.Raw < 0 || r.Raw > 30 {
		t.Errorf("raw average out of range: %v", r.Raw)
	}
	if r.NoiseScale <= 0 {
		t.Errorf("noise scale = %v", r.NoiseScale)
	}
	if res.EpsilonSpent != 1 {
		t.Errorf("spent = %v", res.EpsilonSpent)
	}
	// The budget ledger must reflect the spend.
	rem, err := engine.Remaining("campus", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rem != 9 {
		t.Errorf("remaining = %v, want 9", rem)
	}
}

func TestFacadeProfilesAndFleet(t *testing.T) {
	if got := len(privid.AllProfiles()); got != 10 {
		t.Errorf("profiles = %d, want 10", got)
	}
	cfg := privid.DefaultTaxiConfig()
	cfg.Days = 3
	cfg.Taxis = 20
	cfg.Cameras = 10
	fleet := privid.NewTaxiFleet(cfg)
	src := fleet.Source(5)
	if !strings.HasPrefix(src.Info().Camera, "porto") {
		t.Errorf("camera name %q", src.Info().Camera)
	}
}

func TestFacadeOwnerTooling(t *testing.T) {
	p := privid.CampusProfile()
	s := privid.GenerateScene(p, 3, 20*time.Minute)
	pm := privid.BuildMaskPolicyMap("campus", s, 2, []float64{1, 4})
	if len(pm.Entries) != 2 {
		t.Fatalf("%d policy entries", len(pm.Entries))
	}
	if pm.Entries[1].Policy.Rho > pm.Entries[0].Policy.Rho {
		t.Errorf("mask ladder rho not decreasing")
	}
	src := privid.NewSceneCamera("campus", p, 3, 20*time.Minute)
	if est := privid.EstimateMaxDuration(src, p, 3); est <= 0 {
		t.Errorf("duration estimate %v", est)
	}
	schemes := privid.HighwayProfile().FrameSchemes()
	if _, ok := schemes["directions"]; !ok {
		t.Errorf("highway schemes missing directions: %v", schemes)
	}
}

// TestDocProgramsParse keeps the documented queries honest: every fenced
// block of README.md, docs/QUERY_LANGUAGE.md and DESIGN.md that holds a
// complete program — first token SPLIT, last character ';' — parses, and
// so does every program a `curl -d '{...}'` body of docs/OPERATIONS.md
// submits as its "query". A program that does not is a doc bug: fix the
// doc.
func TestDocProgramsParse(t *testing.T) {
	programs := 0
	check := func(where, body string) {
		t.Helper()
		programs++
		if _, err := query.Parse(body); err != nil {
			t.Errorf("%s: %v\n%s", where, err, body)
		}
	}
	for _, path := range []string{"README.md", "docs/QUERY_LANGUAGE.md", "DESIGN.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Odd-numbered pieces are the fenced blocks' bodies (the rest of
		// each fence line is its info string).
		blocks := strings.Split(string(doc), "\n```")
		for i := 1; i < len(blocks); i += 2 {
			_, body, _ := strings.Cut(blocks[i], "\n")
			body = strings.TrimSpace(body)
			if f := strings.Fields(body); len(f) == 0 || f[0] != "SPLIT" || !strings.HasSuffix(body, ";") {
				continue
			}
			check(fmt.Sprintf("%s, fenced block %d", path, i/2+1), body)
		}
	}
	ops, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	curlBodies := 0
	for _, m := range regexp.MustCompile(`(?s)curl [^\n]*-d '(\{.*?\})'`).FindAllStringSubmatch(string(ops), -1) {
		var req struct{ Query string }
		if err := json.Unmarshal([]byte(m[1]), &req); err != nil {
			t.Errorf("docs/OPERATIONS.md: curl body is not JSON: %v\n%s", err, m[1])
			continue
		}
		if req.Query != "" {
			curlBodies++
			check("docs/OPERATIONS.md, curl body", req.Query)
		}
	}
	if curlBodies == 0 {
		t.Error("found no program in docs/OPERATIONS.md's curl bodies")
	}
	if programs == 0 {
		t.Fatal("found no documented programs")
	}
	t.Logf("%d documented programs parse", programs)
}

// TestDocIdentifiersResolve: every backticked `pkg.Name` or
// `pkg.Type.Member` in README.md, DESIGN.md and docs/*.md whose pkg is
// one of the module's internal packages names a declaration there (test
// files included, so test names resolve). Lower-case names, such as
// the bench metric `store.commits_per_op`, are not identifiers.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package -> "Name" and "Type.Member"
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() == "testdata" {
			if err == nil {
				err = filepath.SkipDir
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		declareFile(decls[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	ref := regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	checked := 0
	for _, path := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Even-numbered pieces lie outside fenced blocks.
		pieces := strings.Split(string(doc), "\n```")
		for i := 0; i < len(pieces); i += 2 {
			for _, s := range span.FindAllString(pieces[i], -1) {
				for _, m := range ref.FindAllStringSubmatch(s, -1) {
					names, ok := decls[m[1]]
					if !ok {
						continue
					}
					checked++
					name := m[2]
					if m[3] != "" && !names[name+"."+m[3]] && names[name] {
						t.Errorf("%s: %s: %s.%s has no member %s", path, s, m[1], name, m[3])
					} else if !names[name] {
						t.Errorf("%s: %s: package %s declares no %s", path, s, m[1], name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented identifiers")
	}
	t.Logf("%d documented identifiers resolve", checked)
}

// declareFile records f's top-level names, and each type's methods,
// fields and interface methods as "Type.Member".
func declareFile(names map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch g := typ.(type) { // generic receivers: T[K] or T[K, V]
			case *ast.IndexExpr:
				typ = g.X
			case *ast.IndexListExpr:
				typ = g.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				names[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var fields *ast.FieldList
					switch u := s.Type.(type) {
					case *ast.StructType:
						fields = u.Fields
					case *ast.InterfaceType:
						fields = u.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							names[s.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
}
