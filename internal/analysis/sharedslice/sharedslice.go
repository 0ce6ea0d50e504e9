// Package sharedslice defines the botvet analyzer for slices and maps
// that several goroutines read through one backing store. It has two
// rules, one per way such a reference is handed out.
//
// Once-cached producers. Accessors such as Store.Families, Store.Targets,
// BotIndex.Refs, and DispersionIndex.Series build their result exactly
// once and then hand the same backing array to every caller — concurrent
// readers included — so any mutation through a returned slice corrupts
// every other reader, silently and racily. Producers opt in with the
// comment directive
//
//	//botscope:shared
//
// in their doc comment. The directive is exported as an object fact, so
// consumers in *other* packages are checked too (the unitchecker driver
// serializes facts along the import graph). At every use site the
// analyzer tracks variables bound to a shared producer's result —
// including re-slices of them — and reports:
//
//   - element writes: v[i] = x, v[i]++;
//   - append with a shared slice as destination (append may write into
//     the shared backing array whenever spare capacity exists);
//   - handing a shared slice to an in-place mutator: sort.Slice,
//     sort.Sort, sort.Ints/Strings/Float64s, slices.Sort*, slices.Reverse;
//   - copy with a shared slice as destination.
//
// Rebinding the variable to anything else — most commonly the clone
// idiom append([]T(nil), v...) — ends the tracking, so clone-then-sort
// stays silent.
//
// Read-locked snapshots. An exported method that holds only a read lock
// (calls <field>.RLock and never <field>.Lock on a sync.RWMutex field of
// its receiver) must not let a map- or slice-typed receiver field escape
// by reference: once the RLock is released a concurrent writer mutates
// the shared backing store under the caller's feet. Escapes are bare uses
// of the field — returned directly, placed in a composite literal, or
// assigned to another variable. Reading through the field (indexing,
// ranging, len/cap, passing to append/copy as a source, method calls on
// it) is fine: those consume the data without retaining the reference.
package sharedslice

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

// IsShared is the object fact exported for every function or method whose
// doc comment carries the //botscope:shared directive.
type IsShared struct{}

func (*IsShared) AFact()         {}
func (*IsShared) String() string { return "shared" }

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "sharedslice",
	Doc:       "flag mutation of slices returned by //botscope:shared Once-cached accessors, and map/slice fields escaping exported methods that hold only an RLock",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*IsShared)(nil)},
	Run:       run,
})

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Facts first, so both this pass and downstream packages can resolve
	// the annotated producers.
	vetutil.ExportDirective(pass, vetutil.SharedDirective, &IsShared{})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		checkBody(pass, decl.Body)
		if recv := vetutil.ReceiverObj(pass.TypesInfo, decl); recv != nil && decl.Name.IsExported() {
			if rlocked, wlocked := lockCalls(pass, decl.Body, recv); rlocked && !wlocked {
				checkEscapes(pass, decl, recv)
			}
		}
	})
	return nil, nil
}

// checkBody tracks shared-slice bindings through one function body (in
// source order, which ast.Inspect's preorder traversal approximates well
// enough for straight-line binding/kill analysis) and reports mutations.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	shared := map[types.Object]bool{}

	// isSharedExpr reports whether e evaluates to a shared slice: a direct
	// call of an annotated producer, a variable currently bound to one, or
	// a re-slice of either.
	var isSharedExpr func(e ast.Expr) bool
	isSharedExpr = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return isSharedCall(pass, x)
		case *ast.Ident:
			return shared[pass.TypesInfo.ObjectOf(x)]
		case *ast.SliceExpr:
			return isSharedExpr(x.X)
		}
		return false
	}

	// checked marks calls already examined eagerly at their enclosing
	// assignment — before the assignment killed the binding they mutate —
	// so the traversal's own visit does not re-report them.
	checked := map[*ast.CallExpr]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Mutation checks first, while the pre-assignment bindings are
			// still live: element writes on the LHS, and calls anywhere on
			// the RHS (v = append(v, ...) must see v as still shared).
			for _, lhs := range x.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isSharedExpr(idx.X) {
					pass.Reportf(lhs.Pos(), "write into shared slice %s returned by a //botscope:shared accessor; clone it first", exprName(idx.X))
				}
			}
			for _, rhs := range x.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && !checked[call] {
						checked[call] = true
						checkCall(pass, call, isSharedExpr)
					}
					return true
				})
			}
			// Then update bindings: v := sharedCall() begins tracking,
			// rebinding v to anything else ends it.
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.ObjectOf(id)
					if obj == nil {
						continue
					}
					if isSharedExpr(x.Rhs[i]) {
						shared[obj] = true
					} else {
						delete(shared, obj)
					}
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && isSharedExpr(idx.X) {
				pass.Reportf(x.Pos(), "write into shared slice %s returned by a //botscope:shared accessor; clone it first", exprName(idx.X))
			}
		case *ast.CallExpr:
			if !checked[x] {
				checked[x] = true
				checkCall(pass, x, isSharedExpr)
			}
		}
		return true
	})
}

// checkCall flags calls that mutate a shared slice argument in place.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, isSharedExpr func(ast.Expr) bool) {
	if len(call.Args) == 0 {
		return
	}
	// Builtins: append(shared, ...) and copy(shared, ...) write the shared
	// backing array (append does whenever spare capacity exists).
	if name := vetutil.BuiltinName(pass.TypesInfo, call); name != "" {
		if isSharedExpr(call.Args[0]) {
			switch name {
			case "append":
				pass.Reportf(call.Pos(), "append to shared slice %s may write the Once-cached backing array; clone with append([]T(nil), s...) first", exprName(call.Args[0]))
			case "copy":
				pass.Reportf(call.Pos(), "copy into shared slice %s mutates the Once-cached backing array", exprName(call.Args[0]))
			case "clear":
				pass.Reportf(call.Pos(), "clear of shared slice %s mutates the Once-cached backing array", exprName(call.Args[0]))
			}
		}
		return
	}
	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if !mutatesFirstArg(fn) {
		return
	}
	if isSharedExpr(call.Args[0]) {
		pass.Reportf(call.Pos(), "%s.%s reorders shared slice %s in place; clone it before sorting", fn.Pkg().Name(), fn.Name(), exprName(call.Args[0]))
	}
}

// mutatesFirstArg recognizes the standard-library in-place mutators whose
// first argument is rearranged: the sort package's slice entry points and
// the slices package's sorting/reversing helpers.
func mutatesFirstArg(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s", "Reverse":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc", "Reverse", "Delete", "Insert", "Compact", "CompactFunc":
			return true
		}
	}
	return false
}

// isSharedCall reports whether the call's callee carries the IsShared
// fact (exported by this pass, or imported from another package).
func isSharedCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := vetutil.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	return pass.ImportObjectFact(fn, &IsShared{})
}

// exprName renders a compact name for diagnostics: the identifier, the
// method name of a call, or "slice" as a fallback.
func exprName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.CallExpr:
		switch f := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			return f.Name + "()"
		case *ast.SelectorExpr:
			return f.Sel.Name + "()"
		}
	case *ast.SliceExpr:
		return exprName(x.X)
	}
	return "slice"
}

// lockCalls reports whether the body calls RLock (and/or Lock) on a
// sync.RWMutex field of the receiver.
func lockCalls(pass *analysis.Pass, body *ast.BlockStmt, recv types.Object) (rlocked, wlocked bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || !vetutil.IsNamed(pass.TypesInfo.TypeOf(sel.X), "sync", "RWMutex") ||
			vetutil.SelectorBase(pass.TypesInfo, inner.X) != recv {
			return true
		}
		if sel.Sel.Name == "RLock" {
			rlocked = true
		} else {
			wlocked = true
		}
		return true
	})
	return rlocked, wlocked
}

// checkEscapes reports bare, reference-retaining uses of the receiver's
// map/slice fields within the body of a read-locked method.
func checkEscapes(pass *analysis.Pass, decl *ast.FuncDecl, recv types.Object) {
	// consumed marks selector expressions that appear in a position that
	// reads through the reference instead of retaining it. A reslice still
	// aliases the backing array, so it is not one of them; writing *into*
	// the field (s.f[k] = v) is covered by the index case.
	consumed := map[*ast.SelectorExpr]bool{}
	markSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			consumed[sel] = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			markSel(x.X)
		case *ast.RangeStmt:
			markSel(x.X)
		case *ast.CallExpr:
			// len/cap/delete/clear consume; append/copy consume their
			// *source* operands (the destination is fresh storage the
			// caller owns). A method call on the field consumes it too.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				markSel(sel.X)
			}
			switch vetutil.BuiltinName(pass.TypesInfo, x) {
			case "len", "cap", "delete", "clear":
				for _, a := range x.Args {
					markSel(a)
				}
			case "append", "copy":
				for _, a := range x.Args[1:] {
					markSel(a)
				}
			}
		}
		return true
	})

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || consumed[sel] {
			return true
		}
		field, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() || vetutil.SelectorBase(pass.TypesInfo, sel.X) != recv {
			return true
		}
		switch field.Type().Underlying().(type) {
		case *types.Map, *types.Slice:
			pass.Reportf(sel.Pos(),
				"%s.%s (reference type) escapes %s while only an RLock is held; deep-copy it before returning",
				recv.Name(), field.Name(), decl.Name.Name)
		}
		return true
	})
}
