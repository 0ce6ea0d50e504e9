// Package mmaplife defines the columnar-tier botvet analyzer that keeps
// mmap-backed column views inside the owning Store's lifetime. Since the
// snapshot load path maps the .bscs file read-only and hands out slices
// and cursor views that alias the mapping (the cursor.go accessors, the
// refIPs arena, the target-row spans), any such value retained past
// Store.Close() is a use-after-unmap: the page is gone and the next read
// is a SIGSEGV, not an error.
//
// Producers are marked with a "//botscope:mmap" doc directive; the fact
// travels across packages. A value assigned from a producer call — or
// re-sliced / re-assigned from one — is "mmap-scoped", and the analyzer
// reports the three retention shapes that outlive a lexical scope:
//
//   - storing an mmap-scoped value into a package-level variable;
//   - passing one into a goroutine (argument or closure capture) unless
//     the launch is annotated "//botscope:pinned" on the go statement,
//     the caller's declaration that the Store provably outlives the
//     goroutine;
//   - returning one from an exported function that carries no documented
//     aliasing contract ("//botscope:mmap" or "//botscope:shared" in its
//     doc comment).
//
// Scalar loads (ints, floats, strings, bools) are copies and never
// scoped.
package mmaplife

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/ssabuild"
	"botscope/internal/analysis/vetutil"
)

// Directive marks a function or method whose results alias the mmap-backed
// column store and share its lifetime.
const Directive = "botscope:mmap"

// PinDirective marks a go statement whose goroutine provably ends before
// the owning Store is closed.
const PinDirective = "botscope:pinned"

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "mmaplife",
	Doc:       "mmap-backed column views (//botscope:mmap producers) must not outlive the owning Store: no package-level stores, no unpinned goroutine captures, no undocumented exported returns",
	Requires:  []*analysis.Analyzer{ssabuild.Analyzer},
	FactTypes: []analysis.Fact{(*mmapFact)(nil)},
	Run:       run,
})

// mmapFact marks a function whose results are mmap-scoped.
type mmapFact struct{}

func (*mmapFact) AFact()         {}
func (*mmapFact) String() string { return "returns mmap-scoped column data" }

type checker struct {
	pass *analysis.Pass
	ssa  *ssabuild.SSA
	// producers holds this package's directive-marked functions; imported
	// ones are resolved through facts.
	producers map[*types.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	// Producer facts first, so that dependent packages (and later phases
	// here) can resolve them.
	c := &checker{
		pass:      pass,
		ssa:       pass.ResultOf[ssabuild.Analyzer].(*ssabuild.SSA),
		producers: vetutil.ExportDirective(pass, Directive, &mmapFact{}),
	}

	c.checkPackageInits()
	for _, f := range c.ssa.Funcs {
		c.checkFunc(f)
	}
	return nil, nil
}

// isProducer reports whether fn is a directive-marked producer, local or
// imported.
func (c *checker) isProducer(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if c.producers[fn] {
		return true
	}
	return c.pass.ImportObjectFact(fn, &mmapFact{})
}

// retainable reports whether t is worth lifetime-tracking: scalar copies
// (numbers, strings, bools) detach from the mapping, everything else —
// slices, views, pointers — can alias it.
func retainable(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Info()&(types.IsNumeric|types.IsString|types.IsBoolean) == 0
	}
	return true
}

// scopedExpr reports whether e evaluates to an mmap-scoped value given the
// current scoped-variable set: a producer call, a scoped identifier, or a
// slice/index/paren/conversion chain over one.
func (c *checker) scopedExpr(e ast.Expr, scoped map[types.Object]bool) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if ok && !retainable(tv.Type) {
		return false
	}
	switch x := e.(type) {
	case *ast.Ident:
		return scoped[c.pass.TypesInfo.ObjectOf(x)]
	case *ast.ParenExpr:
		return c.scopedExpr(x.X, scoped)
	case *ast.SliceExpr:
		return c.scopedExpr(x.X, scoped)
	case *ast.IndexExpr:
		return c.scopedExpr(x.X, scoped)
	case *ast.CallExpr:
		if fn := vetutil.Callee(c.pass.TypesInfo, x); fn != nil {
			return c.isProducer(fn)
		}
		// A conversion keeps the backing array; unwrap it.
		if len(x.Args) == 1 {
			if tf, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tf.IsType() {
				return c.scopedExpr(x.Args[0], scoped)
			}
		}
		return false
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return c.scopedExpr(x.X, scoped)
		}
	}
	return false
}

// scopedSet computes, to a small fixpoint, the local variables of body
// that hold mmap-scoped values.
func (c *checker) scopedSet(body *ast.BlockStmt, node ast.Node) map[types.Object]bool {
	scoped := map[types.Object]bool{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.ObjectOf(id)
		if obj == nil || !retainable(obj.Type()) {
			return
		}
		if c.scopedExpr(rhs, scoped) {
			scoped[obj] = true
		}
	}
	for i := 0; i < 4; i++ {
		before := len(scoped)
		ast.Inspect(body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != node {
				return false // nested literals are their own functions
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for j, l := range x.Lhs {
						record(l, x.Rhs[j])
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for j, name := range x.Names {
						record(name, x.Values[j])
					}
				}
			}
			return true
		})
		if len(scoped) == before {
			break
		}
	}
	return scoped
}

// checkPackageInits flags package-level variables initialized directly
// from a producer call — retention by construction, with no owning frame
// at all.
func (c *checker) checkPackageInits() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, v := range vs.Values {
					if c.scopedExpr(v, nil) {
						c.pass.Reportf(v.Pos(),
							"mmap-scoped value stored in package-level variable %s: the column view outlives every Store; copy the data instead",
							vs.Names[i].Name)
					}
				}
			}
		}
	}
}

func (c *checker) checkFunc(f *ssabuild.Func) {
	scoped := c.scopedSet(f.Body, f.Node)

	// Rule 1: stores into package-level variables.
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Node {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			if !c.scopedExpr(as.Rhs[i], scoped) {
				continue
			}
			root := vetutil.SelectorBase(c.pass.TypesInfo, l)
			if root == nil || root.Parent() != c.pass.Pkg.Scope() {
				continue
			}
			c.pass.Reportf(as.Pos(),
				"mmap-scoped value stored in package-level variable %s: the column view outlives every Store; copy the data instead",
				root.Name())
		}
		return true
	})

	// Rule 2: goroutine launches that carry a scoped value out of the
	// frame, unless pinned.
	for _, g := range f.Gos {
		if vetutil.LineDirective(c.pass, g.Node.Pos(), PinDirective) {
			continue
		}
		for _, arg := range g.Node.Call.Args {
			if c.scopedExpr(arg, scoped) {
				c.pass.Reportf(g.Node.Pos(),
					"mmap-scoped value passed into a goroutine: the view may outlive the Store; annotate //botscope:pinned if the Store provably survives it, or copy the data")
			}
		}
		if g.Lit == nil {
			continue
		}
		reported := false
		ast.Inspect(g.Lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || reported {
				return !reported
			}
			obj := c.pass.TypesInfo.ObjectOf(id)
			if obj == nil || !scoped[obj] {
				return true
			}
			if vetutil.DeclaredWithin(obj, g.Lit.Pos(), g.Lit.End()) {
				return true // the literal's own variable, not a capture
			}
			c.pass.Reportf(g.Node.Pos(),
				"goroutine captures mmap-scoped %s: the view may outlive the Store; annotate //botscope:pinned if the Store provably survives it, or copy the data", obj.Name())
			reported = true
			return false
		})
	}

	// Rule 3: exported functions returning scoped values without a
	// documented aliasing contract.
	if f.Obj == nil || !f.Obj.Exported() {
		return
	}
	if fd, ok := f.Node.(*ast.FuncDecl); c.producers[f.Obj] || ok && vetutil.HasDirective(fd.Doc, vetutil.SharedDirective) {
		return
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Node {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if c.scopedExpr(res, scoped) {
				c.pass.Reportf(ret.Pos(),
					"exported %s returns an mmap-scoped value without an aliasing contract; document it with //botscope:mmap (or //botscope:shared) or return a copy",
					f.Obj.Name())
			}
		}
		return true
	})
}
