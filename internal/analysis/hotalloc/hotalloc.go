// Package hotalloc defines a botvet analyzer that keeps the
// zero-allocation kernels allocation-free at the source level — the
// static twin of benchguard's runtime allocs/op budgets. Functions opt in
// with the comment directive
//
//	//botscope:hotpath
//
// in their doc comment (the ARIMA CSS objective, the dispersion scan, the
// synth formation samplers). Inside an annotated function the analyzer
// reports the constructs that defeat the zero-allocation contract:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf — formatting
//     allocates the result and boxes every argument;
//   - map, slice, or make allocations inside a loop — per-iteration
//     heap growth (a make outside any loop is one-time setup and legal);
//   - append inside a loop to a local slice that was never preallocated
//     with make(..., n) in the same function — unbounded growth
//     reallocates along the hot path (appending to a parameter follows
//     the caller-owns-the-buffer convention and is legal);
//   - interface boxing of scalars: passing an integer, float, bool, or
//     string argument to an interface-typed parameter heap-allocates the
//     value;
//   - closures that capture enclosing variables — each closure value
//     allocates its capture environment (capture-free literals are
//     statically allocated and legal).
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "report allocation-inducing constructs inside //botscope:hotpath functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
})

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || !vetutil.HasDirective(decl.Doc, vetutil.HotpathDirective) {
			return
		}
		checkHotFunc(pass, decl)
	})
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	params := paramObjects(pass.TypesInfo, decl)
	prealloc := preallocatedSlices(pass.TypesInfo, decl.Body)

	// walk tracks loop depth explicitly so per-iteration allocations can
	// be distinguished from one-time setup.
	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.ForStmt:
			walk(x.Init, loopDepth)
			walk(x.Cond, loopDepth)
			walk(x.Post, loopDepth+1)
			walk(x.Body, loopDepth+1)
			return
		case *ast.RangeStmt:
			walk(x.X, loopDepth)
			walk(x.Body, loopDepth+1)
			return
		case *ast.FuncLit:
			if caps := capturedNames(pass.TypesInfo, x); len(caps) > 0 {
				pass.Reportf(x.Pos(), "closure in hot path captures %s; each closure value allocates its environment — hoist the state or pass it explicitly", strings.Join(caps, ", "))
			}
			// The literal's body runs on its own schedule; don't double-
			// report its internals against the enclosing hot path.
			return
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(x)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				if loopDepth > 0 {
					pass.Reportf(x.Pos(), "map literal allocated every loop iteration in hot path; hoist it out of the loop")
				}
			case *types.Slice:
				if loopDepth > 0 {
					pass.Reportf(x.Pos(), "slice literal allocated every loop iteration in hot path; hoist it out of the loop")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, x, loopDepth, params, prealloc)
		}
		// Default: recurse through all children at the same loop depth.
		children(n, func(c ast.Node) { walk(c, loopDepth) })
	}
	walk(decl.Body, 0)
}

// checkHotCall inspects one call inside a hot-path function.
func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, loopDepth int, params, prealloc map[types.Object]bool) {
	// Builtins: make in a loop, and unbounded append in a loop.
	if name := vetutil.BuiltinName(pass.TypesInfo, call); name != "" {
		switch name {
		case "make":
			if loopDepth > 0 {
				pass.Reportf(call.Pos(), "make allocates every loop iteration in hot path; hoist the buffer out of the loop and reuse it")
			}
		case "new":
			if loopDepth > 0 {
				pass.Reportf(call.Pos(), "new allocates every loop iteration in hot path; hoist the value out of the loop")
			}
		case "append":
			if loopDepth > 0 && len(call.Args) > 0 {
				if obj, isIdent := appendDest(pass.TypesInfo, call.Args[0]); isIdent && !params[obj] && !prealloc[obj] {
					pass.Reportf(call.Pos(), "append grows %s inside a hot loop without preallocation; make(..., 0, n) it up front", obj.Name())
				}
			}
		}
		return
	}

	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln", "Errorf", "Appendf", "Append", "Appendln":
			pass.Reportf(call.Pos(), "fmt.%s allocates its result and boxes every argument in hot path; precompute or restructure the output", fn.Name())
			return // boxing into its variadic args is implied; don't double-report
		}
	}

	// Interface boxing of scalars: a basic-typed argument passed to an
	// interface-typed parameter heap-allocates the value.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if basic, isBasic := at.Underlying().(*types.Basic); isBasic && basic.Kind() != types.UntypedNil {
			pass.Reportf(arg.Pos(), "scalar %s boxed into interface parameter in hot path; avoid the conversion or keep it off the hot path", at.String())
		}
	}
}

// paramTypeAt resolves the effective parameter type for argument i,
// unrolling the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// appendDest resolves append's destination to a plain identifier's object.
// Field destinations (pool.buf) return ok=false: growth amortized across
// calls through a retained struct buffer is the sanctioned scratch pattern.
func appendDest(info *types.Info, e ast.Expr) (types.Object, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x), true
	case *ast.SliceExpr:
		return appendDest(info, x.X)
	}
	return nil, false
}

// paramObjects collects the function's parameter (and named result)
// objects — append targets the caller owns.
func paramObjects(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(decl.Type.Params)
	addFields(decl.Type.Results)
	if decl.Recv != nil {
		addFields(decl.Recv)
	}
	return out
}

// preallocatedSlices collects local variables bound to make(...) with an
// explicit length or capacity anywhere in the body — buffers whose growth
// was budgeted up front.
func preallocatedSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 || vetutil.BuiltinName(info, call) != "make" {
				continue
			}
			if lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := info.ObjectOf(lhs); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// capturedNames lists the distinct enclosing-scope variables a closure
// references (by declaration position outside the literal).
func capturedNames(info *types.Info, lit *ast.FuncLit) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		// Package-level variables are not captures — referencing them
		// costs nothing extra.
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true
		}
		if !vetutil.DeclaredWithin(obj, lit.Pos(), lit.End()) {
			seen[obj] = true
			names = append(names, obj.Name())
		}
		return true
	})
	return names
}

// children invokes f on each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true // enter n itself
		}
		if c == nil {
			return false
		}
		f(c)
		return false // do not descend; walk recurses explicitly
	})
}
