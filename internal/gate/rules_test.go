package gate

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Package scopes: the import paths (subpackages included) a rule holds.
// One table, so "which packages promise what" is read in one place.
var (
	deterministicPkgs = []string{module + "/internal/synth", module + "/internal/botnet", module + "/internal/geo", module + "/internal/core"}
	generatorPkgs     = []string{module + "/internal/synth", module + "/internal/botnet"}
	statsPkgs         = []string{module + "/internal/stats", module + "/internal/core", module + "/internal/stream"}
)

// inScope reports whether path is one of paths or lies beneath one of
// them ("a/b" covers "a/b" and "a/b/c", never "a/bc").
func inScope(path string, paths []string) bool {
	return slices.ContainsFunc(paths, func(p string) bool { return path == p || strings.HasPrefix(path, p+"/") })
}

// floateq forbids == and != on float operands in the statistics
// packages, where exact comparison is how quantile edges drift between
// architectures and refactors; x != x too (write math.IsNaN). Two
// constants compare exactly, once, and are allowed.
func floateq(p *pass) {
	if !inScope(p.path, statsPkgs) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xt, yt := p.info.Types[be.X], p.info.Types[be.Y]
		if (isFloat(xt.Type) || isFloat(yt.Type)) && (xt.Value == nil || yt.Value == nil) {
			p.report(be.Pos(), "float %s comparison; test exact zero with stats.IsZero, or compare exact representations", be.Op)
		}
		return true
	})
}

// isFloat reports whether t is a floating-point type (nil: no type).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// nodeterm keeps the measurement packages byte-identical under a seed.
// It reports wall-clock reads; top-level math/rand draws (constructors
// stay legal: randomness flows through an injected *rand.Rand); a slice
// filled in a map range and returned without passing through a call,
// where the sort would be; and output inside a map range. In the
// generator packages so is a seeded draw inside a map range: each family
// must consume its stream in program order.
func nodeterm(p *pass) {
	if !inScope(p.path, deterministicPkgs) {
		return
	}
	generator := inScope(p.path, generatorPkgs)
	p.inspect(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p.info, x)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
					p.report(x.Pos(), "call to time.%s in deterministic package; take event time from the data, not the wall clock", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if fn.Signature().Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
					p.report(x.Pos(), "call to global %s.%s in deterministic package; use an injected seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
				}
			}
		case *ast.RangeStmt:
			if !isMapRange(p.info, x) {
				break
			}
			ast.Inspect(x.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if emitsOutput(p.info, call) {
					p.report(call.Pos(), "output emitted during map iteration has nondeterministic order; collect and sort first")
				}
				if generator && isRandMethod(p.info, call) {
					p.report(call.Pos(), "*rand.Rand draw inside a map range consumes the seeded stream in map-iteration order; iterate a sorted key slice instead")
				}
				return true
			})
		case *ast.FuncDecl:
			if x.Body != nil {
				for _, site := range mapOrderedReturns(p.info, x.Body, x.Type.Results) {
					p.report(site.rng.Pos(), "%s is built in map-iteration order and returned without sorting", site.obj.Name())
				}
			}
		}
		return true
	})
}

// isRandMethod reports whether the call is a method of math/rand's (or
// math/rand/v2's) Rand: a draw from a seeded stream.
func isRandMethod(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return false
	}
	recv := fn.Signature().Recv().Type()
	return isNamed(recv, "math/rand", "Rand") || isNamed(recv, "math/rand/v2", "Rand")
}

// emitsOutput reports whether a call prints, writes or encodes: the sinks
// that would leak map order straight into program output.
func emitsOutput(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		return fn.Signature().Recv() != nil
	}
	return false
}

// mapOrdered is a slice a function fills inside a map range.
type mapOrdered struct {
	obj types.Object
	rng *ast.RangeStmt
}

// mapOrderedReturns finds the slices body appends to inside a map range
// and returns (by a return statement or as a named result) without
// passing them to any call, so the map's iteration order reaches the
// caller.
func mapOrderedReturns(info *types.Info, body *ast.BlockStmt, results *ast.FieldList) []mapOrdered {
	var appends []mapOrdered
	ast.Inspect(body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && isMapRange(info, rng) {
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok {
					if obj := appendTarget(info, as); obj != nil {
						if _, isMap := obj.Type().Underlying().(*types.Map); !isMap {
							appends = append(appends, mapOrdered{obj, rng})
						}
					}
				}
				return true
			})
		}
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
			switch builtinName(info, x) {
			case "append", "len", "cap":
				return true // builtins never sort for you
			}
			for _, arg := range x.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok {
					arg = u.X
				}
				if obj := selectorBase(info, arg); obj != nil {
					passed[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := selectorBase(info, res); obj != nil {
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
	return slices.DeleteFunc(appends, func(s mapOrdered) bool { return !returned[s.obj] || passed[s.obj] })
}

// appendTarget returns the object of v in `v = append(v, ...)`, or of x
// in `x.f = append(x.f, ...)`; nil for any other statement.
func appendTarget(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" {
		return nil
	}
	return selectorBase(info, as.Lhs[0])
}

// sharedslice keeps an exported method holding only its receiver's
// RLock from letting a map or slice field escape by reference; reading
// through it (index, range, len, an append or copy source, a method call)
// is fine. (A build-once product cannot be written through at all: it
// leaves its producer as a memo.View.)
func sharedslice(p *pass) {
	p.inspect(func(n ast.Node) bool {
		decl, ok := n.(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			return true
		}
		if decl.Recv == nil || len(decl.Recv.List[0].Names) == 0 || !decl.Name.IsExported() {
			return false
		}
		if recv := p.info.Defs[decl.Recv.List[0].Names[0]]; recv != nil {
			if rlocked, wlocked := lockCalls(p.info, decl.Body, recv); rlocked && !wlocked {
				checkEscapes(p, decl, recv)
			}
		}
		return false
	})
}

// lockCalls reports whether the body calls RLock (and whether Lock) on a
// sync.RWMutex field of the receiver.
func lockCalls(info *types.Info, body *ast.BlockStmt, recv types.Object) (rlocked, wlocked bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if ok && isNamed(info.TypeOf(sel.X), "sync", "RWMutex") && selectorBase(info, field.X) == recv {
			rlocked = rlocked || sel.Sel.Name == "RLock"
			wlocked = wlocked || sel.Sel.Name == "Lock"
		}
		return true
	})
	return rlocked, wlocked
}

// checkEscapes reports the bare, reference-retaining uses of the
// receiver's map and slice fields in a read-locked method.
func checkEscapes(p *pass, decl *ast.FuncDecl, recv types.Object) {
	// consumed marks the selectors in a position that reads through the
	// reference. A reslice still aliases, so it is not one of them.
	consumed := map[ast.Expr]bool{}
	consume := func(es ...ast.Expr) {
		for _, e := range es {
			consumed[ast.Unparen(e)] = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			consume(x.X)
		case *ast.RangeStmt:
			consume(x.X)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				consume(sel.X) // a method call on the field
			}
			switch builtinName(p.info, x) {
			case "len", "cap", "delete", "clear":
				consume(x.Args...)
			case "append", "copy":
				consume(x.Args[1:]...) // the sources; the destination is the caller's
			}
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || consumed[sel] {
			return true
		}
		field, ok := p.info.Uses[sel.Sel].(*types.Var)
		if !ok || !field.IsField() || selectorBase(p.info, sel.X) != recv {
			return true
		}
		switch field.Type().Underlying().(type) {
		case *types.Map, *types.Slice:
			p.report(sel.Pos(), "%s.%s (reference type) escapes %s while only an RLock is held; deep-copy it before returning", recv.Name(), field.Name(), decl.Name.Name)
		}
		return true
	})
}

// wireframe keeps every switch over a //botvet:wire type, in any
// package, covering each value of the type's package-level constants;
// default does not count (it is for corrupt input, not known frames). A
// directive on a type with no such constants is reported where it stands.
func wireframe(p *pass) {
	for tn := range p.wire {
		if tn.Pkg().Path() != p.path {
			continue
		}
		if b, ok := tn.Type().Underlying().(*types.Basic); !ok || b.Info()&(types.IsInteger|types.IsString) == 0 {
			p.report(tn.Pos(), "//botvet:wire type %s must have an integer or string underlying type to form a constant set", tn.Name())
		} else if len(wireMembers(tn)) == 0 {
			p.report(tn.Pos(), "//botvet:wire type %s declares no package-level constants; the directive is inert", tn.Name())
		}
	}
	p.inspect(func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		named, ok := types.Unalias(p.info.TypeOf(sw.Tag)).(*types.Named)
		if !ok || !p.wire[named.Obj()] {
			return true
		}
		covered := map[string]bool{}
		for _, clause := range sw.Body.List {
			for _, e := range clause.(*ast.CaseClause).List {
				if tv := p.info.Types[e]; tv.Value != nil {
					covered[tv.Value.ExactString()] = true
				}
			}
		}
		var missing []string
		for _, c := range wireMembers(named.Obj()) {
			if val := c.Val().ExactString(); !covered[val] {
				covered[val] = true
				missing = append(missing, c.Name())
			}
		}
		if len(missing) > 0 {
			p.report(sw.Pos(), "switch over wire enum %s is not exhaustive: missing %s (default does not count; handle every declared frame)", named.Obj().Name(), strings.Join(missing, ", "))
		}
		return true
	})
}

// wireMembers returns the package-level constants of exactly tn's type,
// in declaration order.
func wireMembers(tn *types.TypeName) []*types.Const {
	var members []*types.Const
	scope := tn.Pkg().Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), tn.Type()) {
			members = append(members, c)
		}
	}
	slices.SortFunc(members, func(a, b *types.Const) int { return int(a.Pos() - b.Pos()) })
	return members
}

// callee resolves a call's target: the function, method (interface
// methods included), builtin or variable it names; nil for a call of any
// other expression.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr: // an instantiation f[T](...)
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// calleeFunc is callee when it is a declared function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := callee(info, call).(*types.Func)
	return fn
}

// builtinName returns the name of the builtin the call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if b, ok := callee(info, call).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isNamed reports whether t, or the type it points to, is pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// isMapRange reports whether rng ranges over a map.
func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	_, ok := info.TypeOf(rng.X).Underlying().(*types.Map)
	return ok
}

// selectorBase peels x.a.b down to its root identifier's object, or nil
// when the expression is not rooted in an identifier.
func selectorBase(info *types.Info, e ast.Expr) types.Object {
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
