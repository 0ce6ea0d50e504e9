// Package lazymat defines the columnar-tier botvet analyzer that keeps
// the column-native packages off the record face. The lazy snapshot load
// path answers every Table/Figure kernel from columns alone; a single
// call to a record-materializing accessor rebuilds the full *Attack
// arena and forfeits the load path's memory profile. The dataset package
// marks its API with two directives:
//
//	//botscope:materializes  — rebuilds the full record arena
//	                           (Store.Attacks, Bot, Botnet)
//	//botscope:recordbridge  — materializes one row on demand through
//	                           the CAS memo (AttackRecordAt, AttackRecords)
//
// and the facts travel across packages. Within the column-native scope
// (internal/core, internal/monitor, internal/stream) the analyzer
// reports:
//
//   - any call to a //botscope:materializes function — the package-level
//     contract PR 9 pinned with a runtime test ("full runall never
//     materializes records"), now a compile-time gate;
//   - any call from a //botscope:hotpath function that reaches the
//     record face at all — even the per-row bridge allocates, so hot
//     paths must stay on cursors; the reach test is interprocedural
//     through the ssabuild summaries and exported facts.
package lazymat

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/ssabuild"
	"botscope/internal/analysis/vetutil"
)

// Directives marking the dataset record-face API.
const (
	MaterializesDirective = "botscope:materializes"
	BridgeDirective       = "botscope:recordbridge"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "lazymat",
	Doc:       "column-native packages must not materialize attack records: no //botscope:materializes calls in scope, no record-face reach from //botscope:hotpath functions",
	Requires:  []*analysis.Analyzer{ssabuild.Analyzer},
	FactTypes: []analysis.Fact{(*matFact)(nil)},
	Run:       run,
})

// matFact classifies a function's relationship to the record face.
type matFact struct {
	Kind int // 1 = materializes the arena, 2 = per-row bridge, 3 = transitively reaches the face
}

func (*matFact) AFact() {}
func (f *matFact) String() string {
	switch f.Kind {
	case 1:
		return "materializes attack records"
	case 2:
		return "record-face bridge"
	default:
		return "reaches the record face"
	}
}

type checker struct {
	pass  *analysis.Pass
	ssa   *ssabuild.SSA
	local map[*types.Func]int // directive-marked functions in this package
	memo  map[*ssabuild.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:  pass,
		ssa:   pass.ResultOf[ssabuild.Analyzer].(*ssabuild.SSA),
		local: map[*types.Func]int{},
		memo:  map[*ssabuild.Func]bool{},
	}

	for fn := range vetutil.ExportDirective(pass, BridgeDirective, &matFact{Kind: 2}) {
		c.local[fn] = 2
	}
	for fn := range vetutil.ExportDirective(pass, MaterializesDirective, &matFact{Kind: 1}) {
		c.local[fn] = 1
	}

	// Export reach facts for every plain function that transitively
	// touches the record face, so a hot path in another package sees
	// through this one.
	for _, f := range c.ssa.Funcs {
		if f.Obj == nil || c.local[f.Obj] != 0 {
			continue
		}
		if c.reaches(f, map[*ssabuild.Func]bool{}) {
			pass.ExportObjectFact(f.Obj, &matFact{Kind: 3})
		}
	}

	inScope := vetutil.InScope(pass.Pkg.Path(), vetutil.ColumnNativePkgs)
	for _, f := range c.ssa.Funcs {
		fd, _ := f.Node.(*ast.FuncDecl)
		hot := fd != nil && vetutil.HasDirective(fd.Doc, vetutil.HotpathDirective)
		if !inScope && !hot {
			continue
		}
		for _, call := range f.Calls {
			kind := c.kindOf(call.Callee)
			if kind == 0 {
				continue
			}
			switch {
			case inScope && kind == 1:
				c.pass.Reportf(call.Node.Pos(),
					"%s materializes the attack record arena inside a column-native package; stay on the cursor/column API (AttackAt, RowsByFamily, BotDense)",
					call.Callee.Name())
			case hot && kind == 2:
				c.pass.Reportf(call.Node.Pos(),
					"record-face bridge %s called from a //botscope:hotpath function; the per-row memo allocates — read the columns through a cursor instead",
					call.Callee.Name())
			case hot && kind == 3:
				c.pass.Reportf(call.Node.Pos(),
					"call to %s reaches the record face from a //botscope:hotpath function; keep the hot path column-native",
					call.Callee.Name())
			}
		}
	}
	return nil, nil
}

// kindOf resolves a callee's record-face classification: directive kinds
// (1, 2) from this package or facts, reach kind (3) from local summaries
// or facts.
func (c *checker) kindOf(fn *types.Func) int {
	if fn == nil {
		return 0
	}
	if k := c.local[fn]; k != 0 {
		return k
	}
	var fact matFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return fact.Kind
	}
	if target := c.ssa.FuncOf(fn); target != nil && c.reaches(target, map[*ssabuild.Func]bool{}) {
		return 3
	}
	return 0
}

// reaches reports whether f (a plain, unmarked function) transitively
// calls into the record face.
func (c *checker) reaches(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	if v, ok := c.memo[f]; ok {
		return v
	}
	if visited[f] {
		return false
	}
	visited[f] = true
	out := c.decide(f, visited)
	delete(visited, f)
	c.memo[f] = out
	return out
}

func (c *checker) decide(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	for _, call := range f.Calls {
		fn := call.Callee
		if fn == nil {
			continue
		}
		if c.local[fn] != 0 {
			return true
		}
		var fact matFact
		if c.pass.ImportObjectFact(fn, &fact) {
			return true
		}
		if target := c.ssa.FuncOf(fn); target != nil && c.reaches(target, visited) {
			return true
		}
	}
	return false
}
