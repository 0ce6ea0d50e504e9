// Package nodeterm defines a botvet analyzer that keeps the measurement
// packages deterministic. Every table and figure the repo reproduces must
// be byte-identical under a fixed seed, so inside the scoped packages:
//
//   - time.Now / time.Since / time.Until are forbidden — event time comes
//     from the dataset, never from the wall clock;
//   - top-level math/rand functions (rand.Intn, rand.Float64, rand.Perm,
//     ...) are forbidden — all randomness must flow through an injected,
//     seeded *rand.Rand (constructors like rand.New and rand.NewSource
//     stay legal);
//   - building an output slice inside a map range and returning it without
//     an intervening sort is flagged — map iteration order would leak into
//     results;
//   - printing or encoding directly inside a map range is flagged for the
//     same reason;
//   - in the generator packages (internal/synth, internal/botnet), so is a
//     draw from a seeded *rand.Rand inside a map range: the parallel
//     generator is byte-identical for any worker count only because each
//     family consumes its own stream in program order, and a map range
//     splices the stream in iteration order even though it is seeded.
package nodeterm

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
	Name:     "nodeterm",
	Doc:      "forbid wall-clock reads, global randomness, and map-iteration-ordered output or seeded draws in deterministic packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
})

func run(pass *analysis.Pass) (any, error) {
	if !vetutil.InScope(pass.Pkg.Path(), vetutil.DeterministicPkgs) {
		return nil, nil
	}
	generator := vetutil.InScope(pass.Pkg.Path(), vetutil.GeneratorPkgs)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := vetutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
				pass.Reportf(call.Pos(),
					"call to time.%s in deterministic package; take event time from the data, not the wall clock", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if fn.Type().(*types.Signature).Recv() != nil || strings.HasPrefix(fn.Name(), "New") {
				return // methods on a seeded generator, and constructors, are fine
			}
			pass.Reportf(call.Pos(),
				"call to global %s.%s in deterministic package; use an injected seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
		}
	})

	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rng, ok := vetutil.IsMapRange(pass.TypesInfo, n)
		if !ok {
			return
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if emitsOutput(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(), "output emitted during map iteration has nondeterministic order; collect and sort first")
			}
			if generator && isRandMethod(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(),
					"*rand.Rand draw inside a map range consumes the seeded stream in map-iteration order; iterate a sorted key slice instead")
			}
			return true
		})
	})

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		for _, site := range vetutil.MapOrderedReturns(pass.TypesInfo, decl.Body, decl.Type.Results) {
			pass.Reportf(site.Range.Pos(),
				"%s is built in map-iteration order and returned without sorting", site.Obj.Name())
		}
	})
	return nil, nil
}

// isRandMethod reports whether the call is a method on math/rand's (or
// math/rand/v2's) Rand type — a draw from a seeded stream.
func isRandMethod(info *types.Info, call *ast.CallExpr) bool {
	fn := vetutil.Callee(info, call)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && (vetutil.IsNamed(recv.Type(), "math/rand", "Rand") || vetutil.IsNamed(recv.Type(), "math/rand/v2", "Rand"))
}

// emitsOutput reports whether a call writes or encodes data directly (fmt
// printing, io writes, encoder calls) — the sinks that would leak map
// order straight into program output.
func emitsOutput(info *types.Info, call *ast.CallExpr) bool {
	fn := vetutil.Callee(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return true
		}
	}
	return false
}
