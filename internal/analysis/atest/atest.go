// Package atest runs a go/analysis analyzer over a testdata package and
// checks its diagnostics against // want comments, mirroring the core of
// golang.org/x/tools/go/analysis/analysistest. The real analysistest
// drives go/packages (and with it the go command and network-facing
// module machinery); this harness instead parses and type-checks the
// testdata with the standard library's source importer, which resolves
// stdlib imports straight from GOROOT. Testdata packages may therefore
// import only the standard library — plenty for seeding analyzer
// violations.
//
// Expectations use analysistest syntax on the offending line:
//
//	s.count++ // want `access to count .*without holding`
//
// Each backquoted or double-quoted string after "want" is a regexp that
// must match one diagnostic reported on that line; diagnostics with no
// matching want (and wants with no matching diagnostic) fail the test.
// A /* want ... */ block works too, for a line whose // comment is itself
// the thing under test.
//
// RunPkgs extends the harness to a sequence of fixture packages checked in
// dependency order against a shared fact store, so fact-exporting
// analyzers (wireframe) can be tested for
// cross-package fact propagation: a producer package exports facts, a
// consumer package imports the producer by path and the harness checks the
// consumer's diagnostics depend on them.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads the Go package in dir (rooted at the analyzer's testdata,
// typically "testdata/<case>"), assigns it the import path pkgPath — which
// matters to analyzers that scope themselves by package path — and runs a
// over it, comparing diagnostics with // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()

	fset := token.NewFileSet()
	files := parseDir(t, fset, dir)
	if len(files) == 0 {
		t.Fatalf("atest: no .go files in %s", dir)
	}

	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("atest: type-checking %s: %v", dir, err)
	}

	diags, err := runAnalyzer(a, fset, files, pkg, info, newFactStore())
	if err != nil {
		t.Fatalf("atest: running %s on %s: %v", a.Name, dir, err)
	}

	checkWants(t, fset, files, diags)
}

// Pkg names one fixture package for RunPkgs: the directory holding its
// sources and the import path it is type-checked as. Later packages may
// import earlier ones by that path.
type Pkg struct {
	Dir  string
	Path string
}

// RunPkgs loads each fixture package in order, type-checking later
// packages against the earlier ones (so fixtures can import each other by
// their assigned paths), and runs a over every package against a single
// shared fact store — the in-memory analogue of a real driver's
// per-dependency fact files. Diagnostics from all packages are checked
// against the union of // want comments.
func RunPkgs(t *testing.T, a *analysis.Analyzer, pkgs []Pkg) {
	t.Helper()

	fset := token.NewFileSet()
	facts := newFactStore()
	local := map[string]*types.Package{}
	imp := &multiImporter{
		local:    local,
		fallback: importer.ForCompiler(fset, "source", nil),
	}

	var allFiles []*ast.File
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		files := parseDir(t, fset, p.Dir)
		if len(files) == 0 {
			t.Fatalf("atest: no .go files in %s", p.Dir)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.Path, fset, files, info)
		if err != nil {
			t.Fatalf("atest: type-checking %s: %v", p.Dir, err)
		}
		local[p.Path] = pkg

		d, err := runAnalyzer(a, fset, files, pkg, info, facts)
		if err != nil {
			t.Fatalf("atest: running %s on %s: %v", a.Name, p.Dir, err)
		}
		diags = append(diags, d...)
		allFiles = append(allFiles, files...)
	}

	checkWants(t, fset, allFiles, diags)
}

// multiImporter resolves the fixture packages already checked this run and
// defers everything else (the standard library) to the source importer.
type multiImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (m *multiImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.local[path]; ok {
		return pkg, nil
	}
	return m.fallback.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// runAnalyzer executes a and its Requires chain over one package, sharing
// facts through the given store, and returns the target analyzer's
// diagnostics (prerequisites stay silent).
func runAnalyzer(a *analysis.Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *factStore) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	results := map[*analysis.Analyzer]any{}
	var exec func(an *analysis.Analyzer) error
	exec = func(an *analysis.Analyzer) error {
		if _, done := results[an]; done {
			return nil
		}
		for _, req := range an.Requires {
			if err := exec(req); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:   an,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   resultsFor(results, an.Requires),
			ReadFile:   os.ReadFile,
			Report: func(d analysis.Diagnostic) {
				if an == a { // prerequisite analyzers stay silent
					diags = append(diags, d)
				}
			},
			ExportObjectFact:  facts.exportObjectFact,
			ImportObjectFact:  facts.importObjectFact,
			ExportPackageFact: func(fact analysis.Fact) { facts.exportPackageFact(pkg, fact) },
			ImportPackageFact: facts.importPackageFact,
			AllObjectFacts:    facts.allObjectFacts,
			AllPackageFacts:   facts.allPackageFacts,
		}
		res, err := an.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", an.Name, err)
		}
		results[an] = res
		return nil
	}
	if err := exec(a); err != nil {
		return nil, err
	}
	return diags, nil
}

func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("atest: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("atest: parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	return files
}

// factStore is the harness's in-memory stand-in for the fact
// serialization real drivers perform: exporting stores the fact value
// keyed by (object, fact type) and importing copies it back by
// reflection. Under RunPkgs one store spans every fixture package, and
// because later packages type-check against the earlier packages' live
// *types.Package values, a consumer's import of a producer object hits
// the very key the producer exported — cross-package fact propagation
// without gob round-trips.
type factStore struct {
	object  map[types.Object]map[reflect.Type]analysis.Fact
	pkgFact map[*types.Package]map[reflect.Type]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		object:  map[types.Object]map[reflect.Type]analysis.Fact{},
		pkgFact: map[*types.Package]map[reflect.Type]analysis.Fact{},
	}
}

func (fs *factStore) exportObjectFact(obj types.Object, fact analysis.Fact) {
	m := fs.object[obj]
	if m == nil {
		m = map[reflect.Type]analysis.Fact{}
		fs.object[obj] = m
	}
	m[reflect.TypeOf(fact)] = fact
}

func (fs *factStore) importObjectFact(obj types.Object, fact analysis.Fact) bool {
	stored, ok := fs.object[obj][reflect.TypeOf(fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (fs *factStore) exportPackageFact(pkg *types.Package, fact analysis.Fact) {
	m := fs.pkgFact[pkg]
	if m == nil {
		m = map[reflect.Type]analysis.Fact{}
		fs.pkgFact[pkg] = m
	}
	m[reflect.TypeOf(fact)] = fact
}

func (fs *factStore) importPackageFact(pkg *types.Package, fact analysis.Fact) bool {
	stored, ok := fs.pkgFact[pkg][reflect.TypeOf(fact)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

func (fs *factStore) allObjectFacts() []analysis.ObjectFact {
	var out []analysis.ObjectFact
	for obj, m := range fs.object {
		for _, f := range m {
			out = append(out, analysis.ObjectFact{Object: obj, Fact: f})
		}
	}
	return out
}

func (fs *factStore) allPackageFacts() []analysis.PackageFact {
	var out []analysis.PackageFact
	for pkg, m := range fs.pkgFact {
		for _, f := range m {
			out = append(out, analysis.PackageFact{Package: pkg, Fact: f})
		}
	}
	return out
}

func resultsFor(all map[*analysis.Analyzer]any, reqs []*analysis.Analyzer) map[*analysis.Analyzer]any {
	out := make(map[*analysis.Analyzer]any, len(reqs))
	for _, r := range reqs {
		out[r] = all[r]
	}
	return out
}

// wantRe pulls the quoted or backquoted regexps out of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("atest: bad want regexp %q at %s: %v", raw, key, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("atest: unexpected diagnostic at %s: %s", key, d.Message)
		}
	}

	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("atest: missing diagnostic at %s: want match for %q", k, w.raw)
			}
		}
	}
}
