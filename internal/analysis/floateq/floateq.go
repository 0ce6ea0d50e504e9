// Package floateq defines a botvet analyzer forbidding == and != on
// floating-point operands in the statistics-bearing packages. Exact float
// comparison is how quantile edges, similarity scores, and summary
// statistics silently drift between architectures and refactors; the
// epsilon helpers (stats.ApproxEqual) or a restructure (compare the
// underlying integers, e.g. time.Time.Equal) are required instead. The
// NaN idiom x != x is flagged too — write math.IsNaN(x).
//
// Comparisons where both operands are compile-time constants are allowed
// (they are evaluated exactly, once).
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:     "floateq",
	Doc:      "forbid ==/!= on float operands in statistics packages; use epsilon helpers",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
})

func run(pass *analysis.Pass) (any, error) {
	if !vetutil.InScope(pass.Pkg.Path(), vetutil.StatsPkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		be := n.(*ast.BinaryExpr)
		if be.Op != token.EQL && be.Op != token.NEQ {
			return
		}
		xt, yt := pass.TypesInfo.Types[be.X], pass.TypesInfo.Types[be.Y]
		if !isFloat(xt.Type) && !isFloat(yt.Type) {
			return
		}
		if xt.Value != nil && yt.Value != nil {
			return // constant comparison, evaluated exactly at compile time
		}
		pass.Reportf(be.Pos(), "float %s comparison; use an epsilon helper (stats.ApproxEqual) or compare exact representations", be.Op)
	})
	return nil, nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
