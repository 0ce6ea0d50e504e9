package gate

import (
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// Package scopes: the import paths (subpackages included) a rule holds.
// One table, so "which packages promise what" is read in one place.
var (
	deterministicPkgs = []string{module + "/internal/synth", module + "/internal/botnet", module + "/internal/geo", module + "/internal/core"}
	generatorPkgs     = []string{module + "/internal/synth", module + "/internal/botnet"}
	statsPkgs         = []string{module + "/internal/stats", module + "/internal/core", module + "/internal/stream"}
	publishedPkg      = module + "/internal/published" // the one home of the paper's numbers
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

// deadexport keeps the internal packages' surface to what the product
// calls: an exported name under internal/ (a package-level declaration,
// or a method of a package-level type) that no non-test file of the
// module references is a finding, and so is a struct field declared
// under internal/, exported or not, that no non-test file reads; unless
// exportAudit keeps it with a reason. A use through a generic
// instantiation counts for its origin, and a method is used when its type
// implements an interface that has it (error, http.Handler, any the
// program declares or imports). A field is read by a selector that is not
// the target of an assignment or ++/--, nor the first argument of an
// append assigned back to itself; a composite-literal key writes. A
// field is live without a read when its struct is reachable from the
// facade's exported API, converted to an empty interface, or compared
// (fieldUsage). Embedded fields are not checked. A row whose name is live, or names
// nothing, is a finding too: the table only shrinks.
func deadexport(p *pass) {
	rel, ok := strings.CutPrefix(p.path, module+"/internal/")
	if !ok {
		return
	}
	used, ifaces := p.usage()
	reads := p.fieldUsage()
	rows := map[string]bool{}
	for key := range p.audit {
		if pkg, _, _ := strings.Cut(key, "."); pkg == rel {
			rows[key] = true
		}
	}
	const (
		deadName  = "is exported but no non-test code uses it; delete it, move it into a _test.go file, or keep it with a row in the audit table"
		deadField = "is a field no non-test code reads; delete it, or keep it with a row in the audit table"
	)
	check := func(obj types.Object, key string, live bool, dead string) {
		switch {
		case !rows[key] && !live:
			p.report(obj.Pos(), "%s %s", key, dead)
		case rows[key] && live:
			p.report(obj.Pos(), "audit row %s is stale: non-test code uses it now; remove the row", key)
		}
		delete(rows, key)
	}
	scope := p.pkgs[p.path].Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			check(obj, rel+"."+name, used[obj] || implements(obj, ifaces), deadName)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() {
				check(m, rel+"."+name+"."+m.Name(), used[m] || implements(m, ifaces), deadName)
			}
		}
	}
	owners := map[*ast.StructType]string{} // a named struct's type name; an anonymous one is "struct"
	p.inspect(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			if st, ok := x.Type.(*ast.StructType); ok {
				owners[st] = x.Name.Name
			}
		case *ast.StructType:
			owner := cmp.Or(owners[x], "struct")
			for _, f := range x.Fields.List {
				for _, name := range f.Names {
					v := p.info.Defs[name]
					check(v, rel+"."+owner+"."+name.Name, reads[v.(*types.Var)], deadField)
				}
			}
		}
		return true
	})
	for _, key := range slices.Sorted(maps.Keys(rows)) {
		p.report(p.files[0].Name.Pos(), "audit row %s names nothing this package declares; remove the row", key)
	}
}

// usage returns, built once per program, every object a non-test file
// references (an instantiated function, method or field as its generic
// origin) and the non-empty interfaces a method can satisfy: every
// interface type the program writes, every named one in its packages,
// their imports and the universe (error), and the error-chain Unwrap.
func (prog *program) usage() (map[types.Object]bool, []*types.Interface) {
	if prog.used != nil {
		return prog.used, prog.ifaces
	}
	prog.used = map[types.Object]bool{}
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		prog.used[obj] = true
	}
	for id, obj := range prog.info.Uses {
		if !inTestFile(id.Pos()) {
			mark(obj)
		}
	}
	for x, sel := range prog.info.Selections {
		if !inTestFile(x.Pos()) {
			mark(sel.Obj())
		}
	}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			prog.ifaces = append(prog.ifaces, it)
		}
	}
	for _, tv := range prog.info.Types {
		if tv.Type != nil {
			add(tv.Type) // interface literals: var sc interface{ HTTPStatus() int }
		}
	}
	add(unwrapper) // the errors package asserts it in function bodies
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range prog.pkgs {
		scopes = append(scopes, pkg.Scope())
		for _, imp := range pkg.Imports() {
			scopes = append(scopes, imp.Scope())
		}
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return prog.used, prog.ifaces
}

// fieldUsage returns, built once per program, the struct fields (as
// their generic origins) live without an audit row: read by a selector in
// a non-test file, or belonging to a struct that something outside the
// program's selectors reads. That is every struct reachable from the
// facade's exported API (the root package: a library user reads it),
// every struct in a value non-test code converts to an empty interface
// (encoding/json and fmt read it: writeJSON's v, ClusterStatus() any),
// and every struct compared with == or hashed as a map key. A value
// converted to a non-empty interface is read through its methods, whose
// selectors count already.
func (prog *program) fieldUsage() map[*types.Var]bool {
	if prog.fields != nil {
		return prog.fields
	}
	live := map[*types.Var]bool{}
	// walker returns a walk that marks the fields of every struct t
	// reaches. The facade's walk follows what a library user can name:
	// exported fields and methods. An interface's walk follows what
	// encoding/json and fmt read: every field, no method.
	walker := func(api bool) func(types.Type) {
		seen := map[types.Type]bool{}
		var reach func(t types.Type)
		reach = func(t types.Type) {
			if t = types.Unalias(t); t == nil || seen[t] {
				return
			}
			seen[t] = true
			switch x := t.(type) {
			case *types.Named:
				reach(x.Underlying())
				for i := range x.TypeArgs().Len() {
					reach(x.TypeArgs().At(i))
				}
				for i := range x.NumMethods() {
					if api && x.Method(i).Exported() {
						reach(x.Method(i).Type())
					}
				}
			case *types.Struct:
				for i := range x.NumFields() {
					if f := x.Field(i); !api || f.Exported() {
						live[f.Origin()] = true
						reach(f.Type())
					}
				}
			case *types.Tuple:
				for i := range x.Len() {
					reach(x.At(i).Type())
				}
			case *types.Signature:
				reach(x.Params())
				reach(x.Results())
			case *types.Map:
				reach(x.Key())
				reach(x.Elem())
			case interface{ Elem() types.Type }: // pointer, slice, array, chan
				reach(x.Elem())
			}
		}
		return reach
	}
	facade, dumped := walker(true), walker(false)
	if root := prog.pkgs[module]; root != nil {
		for _, name := range root.Scope().Names() {
			if obj := root.Scope().Lookup(name); obj.Exported() {
				facade(obj.Type())
			}
		}
	}
	// compared is a value hashed as a map key or compared with ==, which
	// reads every field of a struct or array.
	compared := func(t types.Type) {
		switch t.Underlying().(type) {
		case *types.Struct, *types.Array:
			dumped(t)
		}
	}
	// conv is an assignment of e to a dst-typed slot.
	conv := func(dst types.Type, e ast.Expr) {
		if dst == nil {
			return
		}
		it, ok := dst.Underlying().(*types.Interface)
		if src := prog.info.TypeOf(e); ok && it.Empty() && src != nil && !types.IsInterface(src) {
			dumped(src)
		}
	}
	writes := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	// selfAppend marks the first argument of lhs = append(lhs, ...) a
	// write: growing a field reads it only to write it back.
	selfAppend := func(lhs, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		fn, _ := ast.Unparen(call.Fun).(*ast.Ident)
		if b, ok := prog.info.Uses[fn].(*types.Builtin); ok && b.Name() == "append" &&
			types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(lhs)) {
			write(call.Args[0])
		}
	}
	var walk func(root ast.Node, sig *types.Signature)
	walk = func(root ast.Node, sig *types.Signature) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					walk(x.Body, prog.info.Defs[x.Name].Type().(*types.Signature))
				}
				return false
			case *ast.FuncLit:
				walk(x.Body, prog.info.TypeOf(x).(*types.Signature))
				return false
			case *ast.ReturnStmt:
				if sig != nil && len(x.Results) == sig.Results().Len() {
					for i, r := range x.Results {
						conv(sig.Results().At(i).Type(), r)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if x.Tok != token.DEFINE {
						write(lhs)
					}
					if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
						conv(prog.info.TypeOf(lhs), x.Rhs[i])
						selfAppend(lhs, x.Rhs[i])
					}
				}
			case *ast.IncDecStmt:
				write(x.X)
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					compared(prog.info.TypeOf(x.X))
				}
			case *ast.IndexExpr:
				if m, ok := prog.info.TypeOf(x.X).Underlying().(*types.Map); ok {
					compared(m.Key())
				}
			case *ast.ValueSpec:
				if x.Type != nil {
					for _, v := range x.Values {
						conv(prog.info.TypeOf(x.Type), v)
					}
				}
			case *ast.CallExpr:
				tv := prog.info.Types[x.Fun]
				if tv.IsType() { // a conversion T(v)
					conv(tv.Type, x.Args[0])
					break
				}
				fn, ok := tv.Type.Underlying().(*types.Signature)
				if !ok {
					break
				}
				params := fn.Params()
				for i, arg := range x.Args {
					switch last := params.Len() - 1; {
					case fn.Variadic() && i >= last && !x.Ellipsis.IsValid():
						conv(params.At(last).Type().Underlying().(*types.Slice).Elem(), arg)
					case i <= last:
						conv(params.At(i).Type(), arg)
					}
				}
			case *ast.CompositeLit:
				t := prog.info.TypeOf(x).Underlying()
				for i, elt := range x.Elts {
					key, val := ast.Expr(nil), elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						key, val = kv.Key, kv.Value
					}
					switch u := t.(type) {
					case *types.Struct:
						if id, ok := key.(*ast.Ident); ok {
							conv(prog.info.ObjectOf(id).Type(), val)
						} else {
							conv(u.Field(i).Type(), val)
						}
					case *types.Map:
						conv(u.Key(), key)
						conv(u.Elem(), val)
					case interface{ Elem() types.Type }: // slice, array
						conv(u.Elem(), val)
					}
				}
			}
			return true
		})
	}
	for _, u := range prog.units {
		for _, f := range u.files {
			if !inTestFile(f.Pos()) {
				walk(f, nil)
			}
		}
	}
	for x, sel := range prog.info.Selections {
		if sel.Kind() == types.FieldVal && !writes[x] && !inTestFile(x.Pos()) {
			live[sel.Obj().(*types.Var).Origin()] = true
		}
	}
	prog.fields = live
	return live
}

// unwrapper is interface{ Unwrap() error }, the error-chain step
// errors.Is and errors.As take.
var unwrapper = types.NewInterfaceType([]*types.Func{
	types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)),
}, nil).Complete()

// implements reports whether obj is a method of a non-generic type that,
// by value or by pointer, implements one of ifaces through that method.
func implements(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	recv := fn.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	return slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		has := false
		for i := range it.NumMethods() {
			has = has || it.Method(i).Name() == fn.Name()
		}
		return has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it))
	})
}

// paperlit keeps each number the paper publishes in one place,
// internal/published, where the generator and the experiments both read
// it: a literal elsewhere with the same value is a copy that can drift.
// Only a literal that is plausibly a copy counts, on both sides: an
// integer of 100 or more, or a float written with three or more
// significant digits. A literal that equals a published value by
// coincidence stays with a row in the audit table, keyed "<import
// path>:<literal>" (it covers that spelling package-wide); a row that
// matches no literal is a finding too.
func paperlit(p *pass) {
	values := p.published()
	if p.path == publishedPkg || len(values) == 0 {
		return
	}
	rows := map[string]bool{}
	for key := range p.lits {
		if pkg, _, _ := strings.Cut(key, ":"); pkg == p.path {
			rows[key] = true
		}
	}
	matched := map[string]bool{}
	p.inspect(func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || !salient(lit) {
			return true
		}
		name, ok := values[exact(lit)]
		if !ok {
			return true
		}
		if key := p.path + ":" + lit.Value; rows[key] {
			matched[key] = true
		} else {
			p.report(lit.Pos(), "%s copies published.%s; read the name (a coincidence needs a row in the audit table)", lit.Value, name)
		}
		return true
	})
	for _, key := range slices.Sorted(maps.Keys(rows)) {
		if !matched[key] {
			p.report(p.files[0].Name.Pos(), "audit row %s matches no literal; remove the row", key)
		}
	}
}

// salient reports whether a numeric literal is specific enough to be a
// copied published number: an integer of 100 or more, or a decimal float
// with three or more significant digits.
func salient(lit *ast.BasicLit) bool {
	switch lit.Kind {
	case token.INT:
		return constant.Compare(constant.MakeFromLiteral(lit.Value, lit.Kind, 0), token.GEQ, constant.MakeInt64(100))
	case token.FLOAT:
		mant := strings.ToLower(strings.ReplaceAll(lit.Value, "_", ""))
		if strings.HasPrefix(mant, "0x") {
			return false
		}
		mant, _, _ = strings.Cut(mant, "e")
		return len(strings.TrimLeft(strings.ReplaceAll(mant, ".", ""), "0")) >= 3
	}
	return false
}

// exact is a numeric literal's exact value, spelled so that equal values
// (1766, 1766.0, 0x6e6) compare equal as strings.
func exact(lit *ast.BasicLit) string {
	v := constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
	if i := constant.ToInt(v); i.Kind() == constant.Int {
		return i.ExactString()
	}
	return v.ExactString()
}

// published returns, built once per program, the salient literal values
// the published package declares, each with the name that holds it: a
// constant (Share), a table row (Table["US"]) or a field of one
// (Table["pandora"].MeanKm). The first name to hold a value is the one a
// finding cites.
func (prog *program) published() map[string]string {
	if prog.paper != nil {
		return prog.paper
	}
	prog.paper = map[string]string{}
	var walk func(e ast.Expr, name string)
	walk = func(e ast.Expr, name string) {
		switch x := e.(type) {
		case *ast.BasicLit:
			if _, ok := prog.paper[exact(x)]; !ok && salient(x) {
				prog.paper[exact(x)] = name
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				switch k := kv.Key.(type) {
				case *ast.BasicLit:
					walk(kv.Value, name+"["+k.Value+"]")
				case *ast.Ident:
					walk(kv.Value, name+"."+k.Name)
				}
			}
		}
	}
	for _, f := range prog.src[publishedPkg] {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, v := range vs.Values {
							walk(v, vs.Names[i].Name)
						}
					}
				}
			}
		}
	}
	return prog.paper
}
