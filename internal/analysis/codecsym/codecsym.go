// Package codecsym defines the columnar-tier botvet analyzer that keeps
// the hand-rolled binary codec symmetric. The BSCW cluster wire payloads
// are encoded and decoded by paired functions that must agree on field
// order and count forever — a field added to the encoder but not the
// decoder shifts every later byte and produces silently wrong data, a
// failure mode round-trip fuzzing only finds when the drift happens to
// break framing. (The BSCS snapshot needs no pairs: one layout table
// drives its encoder and both decoders, internal/dataset/snapshot.go.)
//
// Pairs are declared with a doc directive on both halves:
//
//	//botvet:codec encode attacks     (the writer half)
//	//botvet:codec decode attacks     (the reader half)
//
// For each half the analyzer extracts the sequence of codec-primitive
// operations reachable from entry (via the ssabuild summaries, so dead
// code is excluded): writer/reader method calls named uvarint, varint,
// f64, str, bool, addr — with the reader-side refinement count
// normalized to the uvarint it consumes — plus calls into other
// directive-marked pairs, which must be invoked on the matching side.
// The two sequences must be identical op for op; where both sides name
// the struct field they touch, the field names must agree too, so a
// swapped Lat/Lon pair is caught even though the byte count matches.
//
// The analyzer reports, once per pair, the first divergence (kind, count,
// or field), plus missing/duplicate halves and wrong-side pair calls.
package codecsym

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/ssabuild"
	"botscope/internal/analysis/vetutil"
)

// directive is the doc-comment prefix declaring a codec half:
// "//botvet:codec <encode|decode> <pair>".
const directive = "botvet:codec"

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "codecsym",
	Doc:       "paired //botvet:codec encode/decode functions must touch the same fields in the same order with the same primitive kinds",
	Requires:  []*analysis.Analyzer{ssabuild.Analyzer},
	FactTypes: []analysis.Fact{(*codecFact)(nil)},
	Run:       run,
})

// codecFact publishes a function's codec role so cross-package pair calls
// resolve to the right side.
type codecFact struct {
	Side string // "encode" or "decode"
	Pair string
}

func (*codecFact) AFact()           {}
func (f *codecFact) String() string { return fmt.Sprintf("codec %s half of %q", f.Side, f.Pair) }

// kinds maps writer/reader primitive method names to the wire kind they
// move. count (length guard) is a reader-side refinement of uvarint.
var kinds = map[string]string{
	"uvarint": "uvarint", "Uvarint": "uvarint",
	"varint": "varint", "Varint": "varint",
	"f64": "f64", "F64": "f64",
	"str": "str", "Str": "str",
	"bool": "bool", "Bool": "bool",
	"addr": "addr", "Addr": "addr",
	"count": "uvarint", "Count": "uvarint",
}

// op is one primitive operation in a codec half's linearized sequence.
type op struct {
	kind  string // wire kind, or "pair:<name>" for a nested pair call
	label string // struct field touched, when statically resolvable
	pos   token.Pos
}

func (o op) describe() string {
	if o.label != "" {
		return fmt.Sprintf("%s (%s)", o.kind, o.label)
	}
	return o.kind
}

// half is one annotated function.
type half struct {
	obj  *types.Func
	side string
	pair string
	decl *ast.FuncDecl
	ops  []op
}

func run(pass *analysis.Pass) (any, error) {
	ssa := pass.ResultOf[ssabuild.Analyzer].(*ssabuild.SSA)

	// Collect the annotated halves and export their facts before any op
	// extraction, so nested pair calls resolve in one sweep.
	var halves []*half
	local := map[*types.Func]*codecFact{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			side, pair, ok := parseDirective(fd.Doc)
			if !ok {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil || fd.Body == nil {
				continue
			}
			h := &half{obj: obj, side: side, pair: pair, decl: fd}
			halves = append(halves, h)
			fact := &codecFact{Side: side, Pair: pair}
			local[obj] = fact
			pass.ExportObjectFact(obj, fact)
		}
	}
	if len(halves) == 0 {
		return nil, nil
	}

	c := &checker{pass: pass, ssa: ssa, local: local}
	for _, h := range halves {
		c.extract(h)
	}

	// Group into pairs and compare.
	byPair := map[string][]*half{}
	for _, h := range halves {
		byPair[h.pair] = append(byPair[h.pair], h)
	}
	names := make([]string, 0, len(byPair))
	for name := range byPair {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.checkPair(name, byPair[name])
	}
	return nil, nil
}

// parseDirective matches "//botvet:codec <encode|decode> <pair>" in a doc
// comment group.
func parseDirective(doc *ast.CommentGroup) (side, pair string, ok bool) {
	if doc == nil {
		return "", "", false
	}
	for _, cm := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		rest, found := strings.CutPrefix(text, directive+" ")
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 2 && (fields[0] == "encode" || fields[0] == "decode") {
			return fields[0], fields[1], true
		}
	}
	return "", "", false
}

type checker struct {
	pass  *analysis.Pass
	ssa   *ssabuild.SSA
	local map[*types.Func]*codecFact
}

// roleOf resolves a callee's codec role, local or through facts.
func (c *checker) roleOf(fn *types.Func) *codecFact {
	if fn == nil {
		return nil
	}
	if f := c.local[fn]; f != nil {
		return f
	}
	var fact codecFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return &fact
	}
	return nil
}

// extract linearizes h's reachable primitive operations in source order.
// Reachability comes from the ssabuild summary (dead ops never appear in
// Func.Calls); order and field labels come from a context-carrying walk
// of the body.
func (c *checker) extract(h *half) {
	live := map[*ast.CallExpr]bool{}
	if f := c.ssa.FuncFor(h.decl); f != nil {
		for _, call := range f.Calls {
			live[call.Node] = true
		}
	}

	// rangeLabels resolves range variables drawn from a field-rooted
	// expression ("for _, v := range c.aID") back to the field name.
	rangeLabels := map[types.Object]string{}
	ast.Inspect(h.decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
			if lbl := c.fieldLabel(rs.X, nil); lbl != "" {
				if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
					rangeLabels[obj] = lbl
				}
			}
		}
		return true
	})

	var walkExpr func(e ast.Expr, target string)
	var walkStmt func(s ast.Stmt)

	record := func(call *ast.CallExpr, target string) bool {
		fn := vetutil.Callee(c.pass.TypesInfo, call)
		if fn == nil {
			return false
		}
		if role := c.roleOf(fn); role != nil {
			if role.Side != h.side {
				c.pass.Reportf(call.Pos(),
					"codec pair %q: %s half calls the %s half of pair %q; nested pairs must be invoked on the matching side",
					h.pair, h.side, role.Side, role.Pair)
			}
			h.ops = append(h.ops, op{kind: "pair:" + role.Pair, pos: call.Pos()})
			return true
		}
		kind, ok := kinds[fn.Name()]
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return false
		}
		label := target
		if len(call.Args) > 0 {
			label = c.fieldLabel(call.Args[0], rangeLabels)
		}
		h.ops = append(h.ops, op{kind: kind, label: label, pos: call.Pos()})
		return true
	}

	walkExpr = func(e ast.Expr, target string) {
		switch x := e.(type) {
		case nil:
		case *ast.ParenExpr:
			walkExpr(x.X, target)
		case *ast.CallExpr:
			if live[x] && record(x, target) {
				return
			}
			// A conversion or single-argument wrapper (wireTime) carries
			// the assignment target through to the primitive inside it.
			inner := ""
			if len(x.Args) == 1 && vetutil.BuiltinName(c.pass.TypesInfo, x) == "" {
				inner = target
			}
			for _, a := range x.Args {
				walkExpr(a, inner)
			}
			walkExpr(x.Fun, "")
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key := ""
					if id, ok := kv.Key.(*ast.Ident); ok {
						key = id.Name
					}
					walkExpr(kv.Value, key)
					continue
				}
				walkExpr(elt, "")
			}
		case *ast.UnaryExpr:
			walkExpr(x.X, target)
		case *ast.StarExpr:
			walkExpr(x.X, target)
		case *ast.BinaryExpr:
			walkExpr(x.X, "")
			walkExpr(x.Y, "")
		case *ast.SelectorExpr:
			walkExpr(x.X, "")
		case *ast.IndexExpr:
			walkExpr(x.X, "")
			walkExpr(x.Index, "")
		case *ast.SliceExpr:
			walkExpr(x.X, "")
			walkExpr(x.Low, "")
			walkExpr(x.High, "")
			walkExpr(x.Max, "")
		case *ast.KeyValueExpr:
			walkExpr(x.Key, "")
			walkExpr(x.Value, "")
		case *ast.TypeAssertExpr:
			walkExpr(x.X, "")
		case *ast.FuncLit:
			// Nested literals are separate functions; their ops are not
			// part of this half's linear sequence.
		}
	}

	walkStmt = func(s ast.Stmt) {
		switch x := s.(type) {
		case nil:
		case *ast.BlockStmt:
			for _, st := range x.List {
				walkStmt(st)
			}
		case *ast.ExprStmt:
			walkExpr(x.X, "")
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Rhs {
					walkExpr(x.Lhs[i], "")
					walkExpr(x.Rhs[i], c.fieldLabel(x.Lhs[i], rangeLabels))
				}
			} else {
				for _, r := range x.Rhs {
					walkExpr(r, "")
				}
			}
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExpr(v, "")
						}
					}
				}
			}
		case *ast.IfStmt:
			walkStmt(x.Init)
			walkExpr(x.Cond, "")
			walkStmt(x.Body)
			walkStmt(x.Else)
		case *ast.ForStmt:
			walkStmt(x.Init)
			walkExpr(x.Cond, "")
			walkStmt(x.Post)
			walkStmt(x.Body)
		case *ast.RangeStmt:
			walkExpr(x.X, "")
			walkStmt(x.Body)
		case *ast.SwitchStmt:
			walkStmt(x.Init)
			walkExpr(x.Tag, "")
			walkStmt(x.Body)
		case *ast.TypeSwitchStmt:
			walkStmt(x.Init)
			walkStmt(x.Assign)
			walkStmt(x.Body)
		case *ast.CaseClause:
			for _, e := range x.List {
				walkExpr(e, "")
			}
			for _, st := range x.Body {
				walkStmt(st)
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				walkExpr(r, "")
			}
		case *ast.DeferStmt:
			walkExpr(x.Call, "")
		case *ast.GoStmt:
			walkExpr(x.Call, "")
		case *ast.SendStmt:
			walkExpr(x.Chan, "")
			walkExpr(x.Value, "")
		case *ast.IncDecStmt:
			walkExpr(x.X, "")
		case *ast.LabeledStmt:
			walkStmt(x.Stmt)
		case *ast.SelectStmt:
			walkStmt(x.Body)
		case *ast.CommClause:
			walkStmt(x.Comm)
			for _, st := range x.Body {
				walkStmt(st)
			}
		}
	}
	walkStmt(h.decl.Body)
}

// fieldLabel resolves e to the struct field it reads or writes, when that
// is statically clear: the final name of a selector chain (possibly
// behind conversions, an index, a unary op, or a zero-argument method
// call), or a range variable drawn from such a chain. Bare locals yield
// no label — their names are not stable across the two halves.
func (c *checker) fieldLabel(e ast.Expr, rangeLabels map[types.Object]string) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if rangeLabels != nil {
				if obj := c.pass.TypesInfo.ObjectOf(x); obj != nil {
					return rangeLabels[obj]
				}
			}
			return ""
		case *ast.CallExpr:
			// A conversion unwraps; a zero-argument method call labels by
			// its receiver chain (d.MaxDay.UnixNano() → MaxDay).
			if tf, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tf.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && len(x.Args) == 0 {
				e = sel.X
				continue
			}
			return ""
		default:
			return ""
		}
	}
}

// checkPair validates one pair's halves against each other.
func (c *checker) checkPair(name string, hs []*half) {
	var enc, dec *half
	for _, h := range hs {
		slot := &enc
		if h.side == "decode" {
			slot = &dec
		}
		if *slot != nil {
			c.pass.Reportf(h.decl.Pos(),
				"codec pair %q has two %s halves (%s and %s); each side must be declared exactly once",
				name, h.side, (*slot).obj.Name(), h.obj.Name())
			continue
		}
		*slot = h
	}
	if enc == nil || dec == nil {
		h := enc
		missing := "decode"
		if h == nil {
			h, missing = dec, "encode"
		}
		c.pass.Reportf(h.decl.Pos(),
			"codec pair %q declares only its %s half; the %s half is missing from this package — a one-sided codec is schema drift by construction",
			name, h.side, missing)
		return
	}

	n := min(len(enc.ops), len(dec.ops))
	for i := 0; i < n; i++ {
		e, d := enc.ops[i], dec.ops[i]
		if e.kind != d.kind {
			c.pass.Reportf(d.pos,
				"codec pair %q diverges at op %d: encode writes %s but decode reads %s",
				name, i+1, e.describe(), d.describe())
			return
		}
		if e.label != "" && d.label != "" && e.label != d.label {
			c.pass.Reportf(d.pos,
				"codec pair %q field drift at op %d: encode writes %s but decode stores it into %s",
				name, i+1, e.describe(), d.describe())
			return
		}
	}
	if len(enc.ops) != len(dec.ops) {
		longer, verb := enc, "writes"
		if len(dec.ops) > len(enc.ops) {
			longer, verb = dec, "reads"
		}
		extra := longer.ops[n]
		c.pass.Reportf(extra.pos,
			"codec pair %q is asymmetric: encode emits %d ops but decode consumes %d; the %s half additionally %s %s",
			name, len(enc.ops), len(dec.ops), longer.side, verb, extra.describe())
	}
}
