// Package ctxflow defines the SSA-tier botvet analyzer that keeps
// context.Context threaded from the edge of the cluster plane down to
// every shard client call. In the sharded serve tier a dropped context is
// an unbounded RPC: the handler's deadline and the client's disconnect
// stop propagating, and a slow shard pins frontend resources forever.
//
// Within the cluster plane (internal/cluster and internal/serve),
// outside tests, the analyzer reports:
//
//   - context.Background() / context.TODO() in any function that already
//     has a context in scope (a context.Context or *http.Request
//     parameter) — the deadline was there and was severed; thread ctx, or
//     make the detachment explicit with context.WithoutCancel(ctx);
//   - context.Background() / context.TODO() in functions below the
//     handler layer with no context parameter — accept one and thread it
//     (documented non-cancellable entry points carry an audited ignore);
//   - context.Background() / context.TODO() passed directly as the
//     context argument of a call — the deadline is dropped across that
//     specific call even though the caller holds a live ctx;
//   - interprocedurally, a call from a ctx-holding function into a
//     context-less function (in another package) that is known — via an
//     exported fact — to manufacture its own background context below the
//     edge.
//
// An audited background context ("//botvet:ignore ctxflow <reason>") is
// also kept out of the exported fact: the exception does not propagate to
// callers.
package ctxflow

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/ssabuild"
	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "ctxflow",
	Doc:       "keep context.Context threaded from the request edge through the cluster plane; no fresh background contexts below the handler layer",
	Requires:  []*analysis.Analyzer{ssabuild.Analyzer},
	FactTypes: []analysis.Fact{(*bgFact)(nil)},
	Run:       run,
})

// bgFact marks a context-less function that (transitively) creates its own
// background context below the edge; ctx-holding callers in other packages
// are flagged at the call site.
type bgFact struct{}

func (*bgFact) AFact()         {}
func (*bgFact) String() string { return "creates background context" }

type checker struct {
	pass *analysis.Pass
	ssa  *ssabuild.SSA
	memo map[*ssabuild.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	if !vetutil.InScope(pass.Pkg.Path(), vetutil.ClusterPlanePkgs) {
		return nil, nil
	}
	c := &checker{
		pass: pass,
		ssa:  pass.ResultOf[ssabuild.Analyzer].(*ssabuild.SSA),
		memo: map[*ssabuild.Func]bool{},
	}

	// Facts first: context-less functions that manufacture a context.
	for _, f := range c.ssa.Funcs {
		if f.Obj != nil && !hasCarrier(f.Sig) && c.usesBackground(f, map[*ssabuild.Func]bool{}) {
			pass.ExportObjectFact(f.Obj, &bgFact{})
		}
	}

	for _, f := range c.ssa.Funcs {
		c.checkFunc(f)
	}
	return nil, nil
}

func (c *checker) checkFunc(f *ssabuild.Func) {
	carrier := hasCarrier(f.Sig)

	// Background/TODO calls passed directly as a context argument: the
	// most precise diagnostic, reported once per site.
	dropped := map[*ast.CallExpr]bool{}
	for _, call := range f.Calls {
		if call.Callee == nil {
			continue
		}
		sig, ok := call.Callee.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i, arg := range call.Node.Args {
			argCall, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			name, isBG := backgroundName(c.pass.TypesInfo, argCall)
			if !isBG || i >= sig.Params().Len() || !isContextType(sig.Params().At(i).Type()) {
				continue
			}
			dropped[argCall] = true
			if carrier {
				c.pass.Reportf(argCall.Pos(),
					"deadline dropped: %s receives a fresh context.%s() while the caller's ctx is in scope; pass ctx (or context.WithoutCancel(ctx)) instead",
					call.Callee.Name(), name)
			} else {
				c.pass.Reportf(argCall.Pos(),
					"context.%s() passed to %s below the handler layer; accept a context.Context parameter and thread it from the edge",
					name, call.Callee.Name())
			}
		}
	}

	for _, call := range f.Calls {
		if call.Callee == nil {
			continue
		}
		if name, isBG := backgroundName(c.pass.TypesInfo, call.Node); isBG && !dropped[call.Node] {
			if carrier {
				c.pass.Reportf(call.Node.Pos(),
					"context.%s() below the edge discards the in-scope ctx; thread ctx (or context.WithoutCancel(ctx) to detach explicitly)", name)
			} else {
				c.pass.Reportf(call.Node.Pos(),
					"context.%s() below the handler layer: accept a context.Context from the caller and thread it", name)
			}
			continue
		}
		// Interprocedural: a ctx-holding function calling into another
		// package's context-less function that manufactures its own.
		if carrier && call.Callee.Pkg() != nil && call.Callee.Pkg() != c.pass.Pkg {
			if sigHasCarrier(call.Callee) {
				continue
			}
			if c.pass.ImportObjectFact(call.Callee, &bgFact{}) {
				c.pass.Reportf(call.Node.Pos(),
					"call to %s.%s discards ctx: it creates its own background context below the edge; thread ctx through it",
					call.Callee.Pkg().Name(), call.Callee.Name())
			}
		}
	}
}

// usesBackground reports whether f reaches a (non-audited) background
// context creation, directly or through context-less callees.
func (c *checker) usesBackground(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	if v, ok := c.memo[f]; ok {
		return v
	}
	if visited[f] {
		return false
	}
	visited[f] = true
	ok := c.decideBackground(f, visited)
	delete(visited, f)
	c.memo[f] = ok
	return ok
}

func (c *checker) decideBackground(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	for _, call := range f.Calls {
		if call.Callee == nil {
			continue
		}
		if _, isBG := backgroundName(c.pass.TypesInfo, call.Node); isBG {
			if vetutil.Ignored(c.pass, call.Node.Pos()) {
				continue // audited: the exception must not propagate
			}
			return true
		}
		if sigHasCarrier(call.Callee) {
			continue // the callee threads a ctx; its body is its own problem
		}
		if target := c.ssa.FuncOf(call.Callee); target != nil {
			if c.usesBackground(target, visited) {
				return true
			}
			continue
		}
		if call.Callee.Pkg() != nil && call.Callee.Pkg() != c.pass.Pkg {
			if c.pass.ImportObjectFact(call.Callee, &bgFact{}) {
				return true
			}
		}
	}
	return false
}

// backgroundName matches context.Background() / context.TODO() calls,
// returning the function name.
func backgroundName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := vetutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// hasCarrier reports whether the signature carries a context: a
// context.Context or *http.Request parameter.
func hasCarrier(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if isContextType(t) || vetutil.IsNamed(t, "net/http", "Request") {
			return true
		}
	}
	return false
}

func sigHasCarrier(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && hasCarrier(sig)
}

// isContextType reports whether t is context.Context (a pointer to one
// counts: it carries the same deadline).
func isContextType(t types.Type) bool { return vetutil.IsNamed(t, "context", "Context") }
