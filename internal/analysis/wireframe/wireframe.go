// Package wireframe defines the SSA-tier botvet analyzer that keeps every
// switch over a wire-protocol enum exhaustive. The BSCW shard protocol and
// the cluster admin verbs are closed constant sets: a frame kind that
// reaches a switch and silently falls through `default` (or off the end)
// is a protocol drift bug — one side learned a new frame and the other
// discards it without an error on the wire.
//
// A named constant type opts in with the `//botvet:wire` comment directive
// on its type declaration. The analyzer then:
//
//   - collects the declared package-level constants of that exact type
//     (the member set), exporting it as a fact so switches in other
//     packages are checked against the same set;
//   - requires every switch whose tag has that type to cover every member
//     value — multi-value case lists count, a `default` clause does NOT:
//     default is for corrupt input, not for known frames.
//
// Duplicate constant values (aliases) count as one member; covering any
// alias covers the value.
package wireframe

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "wireframe",
	Doc:       "switches over //botvet:wire enum types must be exhaustive against the declared constant set",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*enumFact)(nil)},
	Run:       run,
})

// Member is one declared constant of a wire enum: its name and the exact
// string form of its value (the dedup key).
type Member struct {
	Name string
	Val  string
}

// enumFact records the member set of a //botvet:wire type on its TypeName,
// so importing packages check their switches against the declaring
// package's constant set.
type enumFact struct {
	Members []Member
}

func (*enumFact) AFact() {}

func (f *enumFact) String() string {
	names := make([]string, len(f.Members))
	for i, m := range f.Members {
		names[i] = m.Name
	}
	return "wire enum {" + strings.Join(names, ", ") + "}"
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: find //botvet:wire type declarations and export their member
	// sets.
	local := map[*types.TypeName]*enumFact{}
	ins.Preorder([]ast.Node{(*ast.GenDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.GenDecl)
		for _, spec := range decl.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if !vetutil.HasDirective(decl.Doc, "botvet:wire") &&
				!vetutil.HasDirective(ts.Doc, "botvet:wire") {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				continue
			}
			basic, ok := obj.Type().Underlying().(*types.Basic)
			if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
				pass.Reportf(ts.Pos(),
					"//botvet:wire type %s must have an integer or string underlying type to form a constant set", obj.Name())
				continue
			}
			fact := &enumFact{Members: declaredMembers(pass.Pkg, obj)}
			if len(fact.Members) == 0 {
				pass.Reportf(ts.Pos(),
					"//botvet:wire type %s declares no package-level constants; the directive is inert", obj.Name())
				continue
			}
			local[obj] = fact
			pass.ExportObjectFact(obj, fact)
		}
	})

	// Pass 2: every switch over a wire enum must cover every member value.
	ins.Preorder([]ast.Node{(*ast.SwitchStmt)(nil)}, func(n ast.Node) {
		sw := n.(*ast.SwitchStmt)
		if sw.Tag == nil {
			return
		}
		tv, ok := pass.TypesInfo.Types[sw.Tag]
		if !ok {
			return
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return
		}
		obj := named.Obj()
		fact := local[obj]
		if fact == nil {
			imported := &enumFact{}
			if obj.Pkg() == nil || !pass.ImportObjectFact(obj, imported) {
				return
			}
			fact = imported
		}
		covered := map[string]bool{}
		for _, clause := range sw.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, e := range cc.List {
				if etv, ok := pass.TypesInfo.Types[e]; ok && etv.Value != nil {
					covered[etv.Value.ExactString()] = true
				}
			}
		}

		var missing []string
		seen := map[string]bool{}
		for _, m := range fact.Members {
			if covered[m.Val] || seen[m.Val] {
				continue
			}
			seen[m.Val] = true
			missing = append(missing, m.Name)
		}
		if len(missing) > 0 {
			pass.Reportf(sw.Pos(),
				"switch over wire enum %s is not exhaustive: missing %s (default does not count; handle every declared frame)",
				obj.Name(), strings.Join(missing, ", "))
		}
	})

	return nil, nil
}

// declaredMembers collects the package-level constants declared with the
// enum's exact type, in declaration order.
func declaredMembers(pkg *types.Package, tn *types.TypeName) []Member {
	var members []Member
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		members = append(members, Member{Name: c.Name(), Val: c.Val().ExactString()})
	}
	sort.Slice(members, func(i, j int) bool {
		ci := scope.Lookup(members[i].Name).Pos()
		cj := scope.Lookup(members[j].Name).Pos()
		if ci != cj {
			return ci < cj
		}
		return members[i].Name < members[j].Name
	})
	return members
}
