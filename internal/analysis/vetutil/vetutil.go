// Package vetutil is the annotation framework the botvet analyzers
// share: the Wrap filter that applies the one suppression comment and
// the test-file exemption to every diagnostic, the doc-directive → fact
// export, the package scopes, and the few AST/type helpers each analyzer
// would otherwise spell out.
package vetutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Package scopes: the import paths (subpackages included) an analyzer
// holds to its rule. One table, so "which packages promise what" is read
// in one place.
var (
	DeterministicPkgs = []string{"botscope/internal/synth", "botscope/internal/botnet", "botscope/internal/geo", "botscope/internal/core"}
	GeneratorPkgs     = []string{"botscope/internal/synth", "botscope/internal/botnet"}
	StatsPkgs         = []string{"botscope/internal/stats", "botscope/internal/core", "botscope/internal/stream"}
)

// InScope reports whether pkgPath is one of paths or lies beneath one of
// them ("a/b" covers "a/b" and "a/b/c", never "a/bc").
func InScope(pkgPath string, paths []string) bool {
	for _, p := range paths {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Wrap installs the gate's two report-time rules on a and returns it, so
// no analyzer applies them by hand: a diagnostic in a _test.go file is
// dropped (the invariants are about product code; tests pin exact floats,
// read the wall clock and poke single-goroutine state on purpose), and so
// is one whose line, or the line above, carries
//
//	//botvet:ignore <analyzer> <reason>
//
// The reason is required: an ignore naming a without one suppresses
// nothing and is itself reported, so every exception in the tree says why.
func Wrap(a *analysis.Analyzer) *analysis.Analyzer {
	run := a.Run
	a.Run = func(pass *analysis.Pass) (any, error) {
		inner := *pass
		inner.Report = func(d analysis.Diagnostic) {
			if !strings.HasSuffix(pass.Fset.Position(d.Pos).Filename, "_test.go") && !ignored(pass, d.Pos) {
				pass.Report(d)
			}
		}
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if name, reason := parseIgnore(c.Text); name == a.Name && !reason {
						inner.Reportf(c.Pos(), "//botvet:ignore %s carries no reason and suppresses nothing; write //botvet:ignore %s <why this site is safe>", name, name)
					}
				}
			}
		}
		return run(&inner)
	}
	return a
}

// parseIgnore splits a "//botvet:ignore <analyzer> <reason>" comment into
// the analyzer it names and whether a reason follows; name is "" for any
// other comment.
func parseIgnore(text string) (name string, reason bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "botvet:ignore ")
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], len(fields) > 1
}

// ignored reports whether the line holding pos, or the line above it,
// carries an audited ignore for the pass's analyzer.
func ignored(pass *analysis.Pass, pos token.Pos) bool {
	pp := pass.Fset.Position(pos)
	for _, f := range pass.Files {
		if pass.Fset.Position(f.Pos()).Filename != pp.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if cl := pass.Fset.Position(c.Pos()).Line; cl != pp.Line && cl != pp.Line-1 {
					continue
				}
				if name, reason := parseIgnore(c.Text); reason && name == pass.Analyzer.Name {
					return true
				}
			}
		}
	}
	return false
}

// HasDirective reports whether the declaration's doc comment group carries
// the given comment directive (e.g. "botscope:shared"): a comment of
// exactly "//<directive>", with no space after the slashes, as gofmt
// preserves for machine-readable directives.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// ExportDirective exports fact on every function or method of the package
// whose doc comment carries directive — which is how an annotation on a
// producer reaches the packages that call it — and returns those
// functions for the pass's own use.
func ExportDirective(pass *analysis.Pass, directive string, fact analysis.Fact) map[*types.Func]bool {
	marked := map[*types.Func]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !HasDirective(fd.Doc, directive) {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				marked[fn] = true
				pass.ExportObjectFact(fn, fact)
			}
		}
	}
	return marked
}

// Callee resolves a call's target to the function or method it names
// (interface methods included), or nil for builtins, conversions and
// calls through a function value.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := typeutil.Callee(info, call).(*types.Func)
	return fn
}

// BuiltinName returns the name of the builtin the call invokes ("append",
// "make", ...), or "" when it calls anything else.
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	if b, ok := typeutil.Callee(info, call).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// IsNamed reports whether t, or the type it points to, is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// IsMutex reports whether t (or the type it points to) is sync.Mutex or
// sync.RWMutex.
func IsMutex(t types.Type) bool {
	return IsNamed(t, "sync", "Mutex") || IsNamed(t, "sync", "RWMutex")
}

// IsMapRange reports whether n is a range statement over a map.
func IsMapRange(info *types.Info, n ast.Node) (*ast.RangeStmt, bool) {
	rng, ok := n.(*ast.RangeStmt)
	if !ok || rng.X == nil {
		return nil, false
	}
	tv, ok := info.Types[rng.X]
	if !ok {
		return nil, false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return rng, isMap
}

// MapOrdered is a slice that a function body fills inside a map range and
// returns without ever handing it to another function.
type MapOrdered struct {
	Obj   types.Object
	Range *ast.RangeStmt
}

// MapOrderedReturns finds the slices body appends to inside a map range
// and returns (through a return statement or a named result in results)
// without passing them to any call — where a sort would happen — so the
// map's iteration order reaches the caller.
func MapOrderedReturns(info *types.Info, body *ast.BlockStmt, results *ast.FieldList) []MapOrdered {
	var appends []MapOrdered
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := IsMapRange(info, n)
		if !ok {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok {
				if obj := appendTarget(info, as); obj != nil {
					if _, isMap := obj.Type().Underlying().(*types.Map); !isMap {
						appends = append(appends, MapOrdered{obj, rng})
					}
				}
			}
			return true
		})
		return true
	})
	if len(appends) == 0 {
		return nil
	}

	passed := map[types.Object]bool{}
	returned := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch BuiltinName(info, x) {
			case "append", "len", "cap":
				return true // builtins never sort for you
			}
			for _, arg := range x.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok {
					arg = u.X
				}
				if obj := SelectorBase(info, arg); obj != nil {
					passed[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := SelectorBase(info, res); obj != nil {
					returned[obj] = true
				}
			}
		}
		return true
	})
	// Named results are returned by bare `return` statements too.
	if results != nil {
		for _, f := range results.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	var out []MapOrdered
	for _, site := range appends {
		if returned[site.Obj] && !passed[site.Obj] {
			out = append(out, site)
		}
	}
	return out
}

// appendTarget returns the object of v in `v = append(v, ...)` or
// `x.f = append(x.f, ...)` (the base object x), or nil.
func appendTarget(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || BuiltinName(info, call) != "append" {
		return nil
	}
	return SelectorBase(info, as.Lhs[0])
}

// ReceiverObj resolves the object of a method's receiver variable, or nil.
func ReceiverObj(info *types.Info, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fn.Recv.List[0].Names[0]]
}

// SelectorBase peels a selector chain x.a.b down to its root identifier's
// object ("x"), or nil when the expression is not rooted in an identifier.
func SelectorBase(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
