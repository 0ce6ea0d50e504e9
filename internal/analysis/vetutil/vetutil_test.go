package vetutil_test

import (
	"go/ast"
	"testing"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/atest"
	"botscope/internal/analysis/vetutil"
)

// toy reports every call to a function named bad: the least analyzer
// that lets the fixture show which diagnostics Wrap lets through.
var toy = vetutil.Wrap(&analysis.Analyzer{
	Name: "toy",
	Doc:  "report calls to bad",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
						pass.Reportf(call.Pos(), "call to bad")
					}
				}
				return true
			})
		}
		return nil, nil
	},
})

// TestWrap pins the one suppression syntax and the test-file exemption:
// an ignore with a reason covers its line and the next for the analyzer
// it names; without a reason it covers nothing and is reported itself;
// _test.go diagnostics never surface.
func TestWrap(t *testing.T) {
	atest.Run(t, "testdata/wrap", toy, "example.com/wrap")
}
