// Package parmerge defines a botvet analyzer that enforces the contracts
// of the deterministic parallel kernels in internal/par. par.Map and
// par.ChunkMap promise byte-identical output for any worker count, but
// only if the closures handed to them behave: each invocation may touch
// its own index-addressed slot and nothing else. The pool entry points
// opt in with the comment directive
//
//	//botscope:parpool
//
// in their doc comment, exported as an object fact so call sites in other
// packages are checked too. Inside every function literal passed to an
// annotated pool function, the analyzer reports:
//
//   - writes to captured variables (assignments, ++/--, captured-pointer
//     stores) whose destination is not an element indexed by one of the
//     closure's own parameters — concurrent invocations would race, and
//     even under a mutex the merge order would depend on scheduling;
//   - go statements — goroutines launched inside a pool closure escape
//     the pool's bounded concurrency and its deterministic merge;
//   - slices built in map-iteration order and returned from the closure
//     without passing through another call (where a sort would happen) —
//     the shard's content would depend on map hashing.
package parmerge

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

// Directive is the doc-comment marker a pool entry point carries.
const Directive = "botscope:parpool"

// IsPool is the object fact exported for every function whose doc comment
// carries the //botscope:parpool directive.
type IsPool struct{}

func (*IsPool) AFact()         {}
func (*IsPool) String() string { return "parpool" }

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "parmerge",
	Doc:       "enforce the determinism contract of closures passed to //botscope:parpool kernels",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*IsPool)(nil)},
	Run:       run,
})

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	vetutil.ExportDirective(pass, Directive, &IsPool{})

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := vetutil.Callee(pass.TypesInfo, call)
		if fn == nil || !pass.ImportObjectFact(fn, &IsPool{}) {
			return
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				checkClosure(pass, fn.Name(), lit)
			}
		}
	})
	return nil, nil
}

// checkClosure enforces the pool contract inside one closure literal.
func checkClosure(pass *analysis.Pass, poolName string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if x != lit {
				return false // nested closures are that closure's business
			}
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "go statement inside a closure passed to %s bypasses the bounded pool; let the kernel schedule the work", poolName)
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(pass, poolName, lit, lhs, x.Tok.String())
			}
		case *ast.IncDecStmt:
			checkWrite(pass, poolName, lit, x.X, x.Tok.String())
		}
		return true
	})

	// A slice appended to inside a map range and returned without ever
	// being handed to another call: the shard's element order would follow
	// map hashing, and the kernel's ordered merge would faithfully preserve
	// the nondeterminism.
	for _, site := range vetutil.MapOrderedReturns(pass.TypesInfo, lit.Body, lit.Type.Results) {
		pass.Reportf(site.Range.Pos(), "closure passed to %s returns %s built in map-iteration order; the merged shards differ run to run — collect and sort first", poolName, site.Obj.Name())
	}
}

// checkWrite flags stores whose destination is captured from outside the
// closure and not addressed by one of the closure's own parameters.
func checkWrite(pass *analysis.Pass, poolName string, lit *ast.FuncLit, lhs ast.Expr, tok string) {
	root, indexed := writeRoot(pass.TypesInfo, lit, lhs)
	if root == nil || indexed {
		return
	}
	if vetutil.DeclaredWithin(root, lit.Pos(), lit.End()) {
		return // the closure's own local or parameter
	}
	pass.Reportf(lhs.Pos(), "closure passed to %s writes captured %s (%s) outside an index-addressed slot; shard results through the return value instead", poolName, root.Name(), tok)
}

// writeRoot peels a store destination down to its root object and reports
// whether the destination is an element addressed by a closure parameter
// (out[i] = ... with i a parameter — the one sanctioned captured write).
func writeRoot(info *types.Info, lit *ast.FuncLit, e ast.Expr) (root types.Object, paramIndexed bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x), false
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if usesClosureParam(info, lit, x.Index) {
				return nil, true
			}
			e = x.X
		default:
			return nil, false
		}
	}
}

// usesClosureParam reports whether the expression mentions any of the
// closure's own parameters.
func usesClosureParam(info *types.Info, lit *ast.FuncLit, e ast.Expr) bool {
	params := map[types.Object]bool{}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && params[info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}
