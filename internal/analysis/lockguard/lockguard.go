// Package lockguard defines a botvet analyzer enforcing annotated mutex
// discipline. A struct field whose declaration carries a
//
//	// guarded by <mutexField>
//
// comment may only be read or written inside a function that either
// acquires that mutex itself (calls <mutexField>.Lock, .RLock, or
// .TryLock on the same receiver/variable — TryLock counting on the
// strength of the guarded early-return idiom, where a failed attempt
// exits before any guarded access) or is explicitly documented to run
// with it held via a
//
//	//lockguard:held <mutexField>
//
// comment in its doc. Calls to a lockguard:held function are themselves
// checked: the caller must also hold (acquire or be annotated), which
// propagates the invariant through same-package helpers. Composite
// literals constructing the struct are exempt — a value that has not
// escaped yet cannot be contended.
package lockguard

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:     "lockguard",
	Doc:      "check that fields annotated '// guarded by mu' are only touched with the mutex held",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
})

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// guard ties a protected field to the mutex field guarding it.
type guard struct {
	mutex *types.Var // the mutex field object
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	guards := collectGuards(pass, ins)
	if len(guards) == 0 {
		return nil, nil
	}
	held := collectHeldAnnotations(pass, ins)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		acquired := acquiredMutexes(pass, decl.Body)
		holds := func(mu *types.Var) bool {
			return acquired[mu] || held[pass.TypesInfo.Defs[decl.Name]][mu] || held[pass.TypesInfo.Defs[decl.Name]][nil]
		}

		ast.Inspect(decl.Body, func(m ast.Node) bool {
			return checkNode(pass, guards, m, holds)
		})

		// Calling a helper documented as needing the lock requires holding it.
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := vetutil.Callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			reqs, ok := held[callee]
			if !ok {
				return true
			}
			for mu := range reqs {
				if mu != nil && !holds(mu) {
					pass.Reportf(call.Pos(), "call to %s requires holding %s", callee.Name(), mu.Name())
				}
			}
			return true
		})
	})
	return nil, nil
}

// checkNode reports guarded-field selector accesses made without the lock.
func checkNode(pass *analysis.Pass, guards map[*types.Var]guard, n ast.Node, holds func(*types.Var) bool) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return true
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok {
		return true
	}
	g, guarded := guards[obj]
	if !guarded {
		return true
	}
	if !holds(g.mutex) {
		pass.Reportf(sel.Pos(), "access to %s (guarded by %s) without holding the mutex", obj.Name(), g.mutex.Name())
	}
	return true
}

// collectGuards scans struct declarations for '// guarded by mu' field
// annotations and resolves the named mutex field on the same struct.
func collectGuards(pass *analysis.Pass, ins *inspector.Inspector) map[*types.Var]guard {
	guardIndex := map[*types.Var]guard{}
	ins.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
		st := n.(*ast.StructType)
		// Resolve candidate mutex fields by name first.
		mutexes := map[string]*types.Var{}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && vetutil.IsMutex(v.Type()) {
					mutexes[name.Name] = v
				}
			}
		}
		if len(mutexes) == 0 {
			return
		}
		for _, f := range st.Fields.List {
			name := guardAnnotation(f)
			if name == "" {
				continue
			}
			mu, ok := mutexes[name]
			if !ok {
				pass.Reportf(f.Pos(), "field is 'guarded by %s' but the struct has no mutex field %s", name, name)
				continue
			}
			for _, id := range f.Names {
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					guardIndex[v] = guard{mutex: mu}
				}
			}
		}
	})
	return guardIndex
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or "".
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// collectHeldAnnotations maps function objects to the set of mutex fields
// their doc declares as held by the caller (nil key = "all mutexes of the
// receiver", from a bare lockguard:held).
func collectHeldAnnotations(pass *analysis.Pass, ins *inspector.Inspector) map[types.Object]map[*types.Var]bool {
	out := map[types.Object]map[*types.Var]bool{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Doc == nil {
			return
		}
		obj := pass.TypesInfo.Defs[decl.Name]
		if obj == nil {
			return
		}
		for _, c := range decl.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "lockguard:held")
			if !ok {
				continue
			}
			names := strings.Fields(rest)
			set := out[obj]
			if set == nil {
				set = map[*types.Var]bool{}
				out[obj] = set
			}
			if len(names) == 0 {
				set[nil] = true
				continue
			}
			for _, name := range names {
				if mu := receiverMutex(pass, decl, name); mu != nil {
					set[mu] = true
				} else {
					set[nil] = true
				}
			}
		}
	})
	return out
}

// receiverMutex resolves a mutex field name against the method's receiver
// struct, or nil for non-methods / unknown fields.
func receiverMutex(pass *analysis.Pass, decl *ast.FuncDecl, name string) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.TypesInfo.Types[decl.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name && vetutil.IsMutex(f.Type()) {
			return f
		}
	}
	return nil
}

// acquiredMutexes returns the mutex field objects this body locks (Lock,
// RLock, or TryLock) directly.
func acquiredMutexes(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" && sel.Sel.Name != "TryLock") {
			return true
		}
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if v, ok := pass.TypesInfo.Uses[inner.Sel].(*types.Var); ok && vetutil.IsMutex(v.Type()) {
				out[v] = true
			}
		}
		return true
	})
	return out
}
