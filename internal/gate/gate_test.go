// Package gate is the repository's static gate: six rules over the
// typed syntax of every package in the module, run by `go test
// ./internal/gate/` (and so by `go test ./...`). The module is loaded with
// the standard library alone — go/build picks each package's non-test
// files, go/parser parses them and go/types checks them into one shared
// types.Info — so a rule that spans packages (a //botvet:wire enum
// switched on elsewhere) reads the declaring package directly.
//
// Two report-time rules hold for every rule: a finding in a _test.go file
// is dropped (tests pin exact floats and read the clock on purpose), and
// so is one whose line, or the line above, carries
//
//	//botvet:ignore <rule> <reason>
//
// An ignore without a reason suppresses nothing and is itself a finding.
package gate

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// module is the module path in go.mod; the rule scopes are spelled in it.
const module = "botscope"

// rules is the gate, in report order.
var rules = []rule{
	{"floateq", floateq},
	{"nodeterm", nodeterm},
	{"sharedslice", sharedslice},
	{"wireframe", wireframe},
	{"deadexport", deadexport},
	{"paperlit", paperlit},
}

// fset and std are shared by every load in the test binary. The standard
// library comes from the compiler's export data, not type-checked from
// source: that was two thirds of the gate's time, and no rule looks inside
// std. stdExports maps each std import path to its export data file; one
// go list call per load fills in the paths it has not seen (the go command
// builds them into its cache offline), where the importer's own lookup
// would run go list once a package.
var (
	fset       = token.NewFileSet()
	stdExports = map[string]string{}
	std        = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(stdExports[path])
	})
)

// listStdExports records the export data files of the packages src imports
// from outside itself.
func listStdExports(src map[string][]*ast.File) error {
	var paths []string
	for _, files := range src {
		for _, f := range files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if _, ok := src[p]; err == nil && !ok && p != "unsafe" && stdExports[p] == "" {
					paths = append(paths, p)
				}
			}
		}
	}
	if len(paths) == 0 {
		return nil
	}
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...).Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	for line := range strings.Lines(string(out)) {
		if p, file, ok := strings.Cut(strings.TrimSpace(line), "\t"); ok {
			stdExports[p] = file
		}
	}
	return nil
}

type rule struct {
	name string
	run  func(*pass)
}

type finding struct {
	pos        token.Pos
	rule, text string
}

// program is a set of packages checked into one types.Info, with the
// directive-marked declarations of all of them.
type program struct {
	info  *types.Info
	units []unit                   // dependency order
	wire  map[*types.TypeName]bool // types whose declaration carries //botvet:wire
	src   map[string][]*ast.File   // parsed packages by import path
	pkgs  map[string]*types.Package
	audit map[string]string // deadexport's kept names and why (nil: none)
	lits  map[string]string // paperlit's kept literals and why (nil: none)

	used   map[types.Object]bool // every object referenced, generic origins folded; built on first use
	ifaces []*types.Interface    // the interfaces a method may be kept alive by; built with used
	paper  map[string]string     // published's salient values (exact) and their names; built on first use
	fields map[*types.Var]bool   // the struct fields live without an audit row; built on first use
}

type unit struct {
	path  string
	files []*ast.File
}

// pass is one rule over one package.
type pass struct {
	*program
	unit
	rule  string
	found *[]finding
}

func (p *pass) report(pos token.Pos, format string, args ...any) {
	*p.found = append(*p.found, finding{pos, p.rule, fmt.Sprintf(format, args...)})
}

// inspect walks every file of the package.
func (p *pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.files {
		ast.Inspect(f, fn)
	}
}

// Import type-checks a parsed package on demand, after the packages it
// imports; a path the program holds no source for is the standard
// library's.
func (prog *program) Import(path string) (*types.Package, error) {
	if pkg, ok := prog.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := prog.src[path]
	if !ok {
		return std.Import(path)
	}
	conf := types.Config{Importer: prog}
	pkg, err := conf.Check(path, fset, files, prog.info)
	if err != nil {
		return nil, err
	}
	prog.pkgs[path] = pkg
	prog.units = append(prog.units, unit{path, files})
	return pkg, nil
}

// comments calls fn on every comment in the program.
func (prog *program) comments(fn func(*ast.Comment)) {
	for _, u := range prog.units {
		for _, f := range u.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					fn(c)
				}
			}
		}
	}
}

// line is a source line, the unit ignores and wants apply to.
type line struct {
	file string
	n    int
}

func lineOf(pos token.Pos) line {
	at := fset.Position(pos)
	return line{at.Filename, at.Line}
}

// newProgram type-checks the parsed packages, keyed by import path, and
// collects their directives.
func newProgram(src map[string][]*ast.File) (*program, error) {
	prog := &program{
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		wire: map[*types.TypeName]bool{},
		src:  src,
		pkgs: map[string]*types.Package{},
	}
	if err := listStdExports(src); err != nil {
		return nil, err
	}
	for _, path := range slices.Sorted(maps.Keys(src)) {
		if _, err := prog.Import(path); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
	}
	for _, u := range prog.units {
		for _, f := range u.files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && (hasDirective(d.Doc, "botvet:wire") || hasDirective(ts.Doc, "botvet:wire")) {
						prog.wire[prog.info.Defs[ts.Name].(*types.TypeName)] = true
					}
				}
			}
		}
	}
	return prog, nil
}

// loadModule parses the non-test files of every package under root (the
// module root), skipping testdata and the directories the go command
// ignores, and type-checks them.
func loadModule(root string) (*program, error) {
	src := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(rel))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			src[ip] = append(src[ip], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newProgram(src)
}

// check runs each rule over each package and applies the report-time
// rules, returning the findings in position order.
func check(prog *program, rules []rule) []finding {
	var raw []finding
	for _, u := range prog.units {
		for _, r := range rules {
			r.run(&pass{prog, u, r.name, &raw})
		}
	}
	audited := map[line][]string{} // the rules an ignore with a reason covers
	var out []finding
	prog.comments(func(c *ast.Comment) {
		name, reason, ok := parseIgnore(c.Text)
		switch {
		case !ok:
		case !reason:
			out = append(out, finding{c.Pos(), name, fmt.Sprintf("//botvet:ignore %s carries no reason and suppresses nothing; write //botvet:ignore %s <why this site is safe>", name, name)})
		default:
			l := lineOf(c.Pos())
			audited[l] = append(audited[l], name)
			l.n++
			audited[l] = append(audited[l], name)
		}
	})
	for _, d := range raw {
		if !slices.Contains(audited[lineOf(d.pos)], d.rule) {
			out = append(out, d)
		}
	}
	out = slices.DeleteFunc(out, func(d finding) bool { return inTestFile(d.pos) })
	slices.SortFunc(out, func(a, b finding) int { return int(a.pos - b.pos) })
	return out
}

// inTestFile reports whether pos lies in a _test.go file.
func inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// parseIgnore splits "//botvet:ignore <rule> <reason>" into the rule it
// names and whether a reason follows; ok is false for any other comment.
func parseIgnore(text string) (name string, reason, ok bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "botvet:ignore ")
	fields := strings.Fields(rest)
	if !ok || len(fields) == 0 {
		return "", false, false
	}
	return fields[0], len(fields) > 1, true
}

// hasDirective reports whether a doc comment group carries the comment
// directive exactly ("//botvet:wire": no space after the slashes).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	return doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool {
		return strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive
	})
}

// TestRepo holds every package in the module to the gate: no finding, the
// six audited floateq sites in internal/stats excepted by their ignores,
// the exports exportAudit keeps and the literals paperlitAudit keeps.
func TestRepo(t *testing.T) {
	prog, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog.audit, prog.lits = exportAudit, paperlitAudit
	for key := range exportAudit {
		if pkg, _, _ := strings.Cut(key, "."); prog.pkgs[module+"/internal/"+pkg] == nil {
			t.Errorf("exportAudit row %s names a package the module no longer has; remove the row", key)
		}
	}
	for key := range paperlitAudit {
		if pkg, _, _ := strings.Cut(key, ":"); prog.pkgs[pkg] == nil {
			t.Errorf("paperlitAudit row %s names a package the module no longer has; remove the row", key)
		}
	}
	if len(prog.published()) == 0 {
		t.Fatalf("%s holds no salient value; paperlit checks nothing", publishedPkg)
	}
	if len(prog.wire) == 0 {
		t.Fatalf("loaded %d packages with no wire enum; the //botvet:wire directives were not found", len(prog.units))
	}
	for _, d := range check(prog, rules) {
		t.Errorf("%s: %s: %s", fset.Position(d.pos), d.rule, d.text)
	}
}
