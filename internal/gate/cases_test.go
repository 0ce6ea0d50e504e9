package gate

import (
	"go/ast"
	"go/parser"
	"maps"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// toy reports every call to a function named bad: the least rule that
// shows which findings the report-time rules let through.
func toy(p *pass) {
	p.inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
				p.report(call.Pos(), "call to bad")
			}
		}
		return true
	})
}

// TestRules runs the gate over in-memory packages and holds its findings
// to the fixtures' want comments. A file's name is its package's import
// path plus a base name, and the path is what the rules scope by; a
// package may import another in the same case by that path. On a line,
//
//	x == y // want "float == comparison"
//
// each double-quoted regexp after "want" must match one finding on that
// line, and every finding must match one; a /* want ... */ block serves a
// line whose // comment is itself under test.
func TestRules(t *testing.T) {
	cases := []struct {
		name  string
		extra []rule            // run with the gate's
		audit map[string]string // deadexport's table for the case
		lits  map[string]string // paperlit's table for the case
		files map[string]string
	}{
		{name: "floateq/scoped", files: map[string]string{"botscope/internal/stats/a.go": `package stats

import "math"

const eps = 1e-9

func bad(a, b float64) bool { return a == b } // want "float == comparison"
func badNeq(a, b float64) bool { return a != b } // want "float != comparison"

// The NaN idiom is flagged too: math.IsNaN says what it means.
func nanIdiom(x float64) bool { return x != x } // want "float != comparison"
func zeroSentinel(a float64) bool { return a == 0 } // want "float == comparison"
func f32(a, b float32) bool { return a == b } // want "float == comparison"
func good(a, b float64) bool { return math.Abs(a-b) <= eps }
func ints(a, b int) bool { return a == b }
func constFold() bool { return 1.5 == 1.5 }
func allowed(a float64) bool { return a == 0 } //botvet:ignore floateq fixture exercises the ignore directive
`}},
		{name: "nodeterm/scoped", files: map[string]string{"botscope/internal/synth/a.go": `package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func stamp() time.Time { return time.Now() } // want "call to time.Now in deterministic package"
func elapsed(t0 time.Time) time.Duration { return time.Since(t0) } // want "call to time.Since in deterministic package"
func roll() int { return rand.Intn(6) } // want "call to global rand.Intn in deterministic package"
func shuffle(xs []int) { rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) } // want "call to global rand.Shuffle"

// seeded is the approved idiom: constructors and methods on an injected,
// seeded generator.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "out is built in map-iteration order and returned without sorting"
		out = append(out, k)
	}
	return out
}

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func namedResult(m map[string]int) (out []string) {
	for k := range m { // want "out is built in map-iteration order and returned without sorting"
		out = append(out, k)
	}
	return
}

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "output emitted during map iteration has nondeterministic order"
	}
}

func allowed() time.Time {
	//botvet:ignore nodeterm fixture exercises the ignore directive
	return time.Now()
}
`, "botscope/internal/synth/skip_test.go": `package synth

import "time"

// Test files are exempt.
func testOnlyStamp() time.Time { return time.Now() }
`}},
		// Each scoped rule's violations, outside the rule's scope.
		{name: "floateq/unscoped", files: map[string]string{"example.com/other/a.go": `package other
func compare(a, b float64) bool { return a == b }
`}},
		{name: "nodeterm/unscoped", files: map[string]string{"example.com/outside/a.go": `package outside

import (
	"math/rand"
	"time"
)

func stamp() time.Time { return time.Now() }
func roll() int        { return rand.Intn(6) }

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`}},
		{name: "nodeterm/generator_unscoped", files: map[string]string{"example.com/a/a.go": `package a

import "math/rand"

func mapDraw(rng *rand.Rand, weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w * rng.Float64()
	}
	return total
}
`}},
		{name: "nodeterm/generator", files: map[string]string{"botscope/internal/synth/a.go": `package synth

import (
	"math/rand"
	"time"
)

// A global draw or a wall-clock read is reported once.
func badGlobalDraws(n int) int {
	x := rand.Intn(n)                  // want "call to global rand.Intn in deterministic package"
	y := rand.Float64()                // want "call to global rand.Float64 in deterministic package"
	rand.Shuffle(n, func(i, j int) {}) // want "call to global rand.Shuffle in deterministic package"
	return x + int(y)
}

func badWallClock() int64 {
	now := time.Now()    // want "call to time.Now in deterministic package"
	d := time.Since(now) // want "call to time.Since in deterministic package"
	return int64(d)
}

func badMapOrderedDraw(rng *rand.Rand, weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w * rng.Float64() // want "draw inside a map range consumes the seeded stream in map-iteration order"
	}
	return total
}

// Draws in a slice range, and a map range without draws, are legal.
func goodDraws(rng *rand.Rand, keys []string, weights map[string]float64) float64 {
	total := 0.0
	for _, k := range keys {
		total += weights[k] * rng.Float64()
	}
	for _, w := range weights {
		total += w
	}
	return total
}

func allowedException() time.Time { return time.Now() } //botvet:ignore nodeterm fixture exercises the ignore directive
`}},
		{name: "sharedslice/rlock", files: map[string]string{"example.com/basic/a.go": `package basic

import "sync"

type reg struct {
	mu    sync.RWMutex
	items map[string]int
	list  []int
	n     int
}

func (r *reg) Items() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.items // want "r\.items \(reference type\) escapes Items while only an RLock is held"
}

func (r *reg) ItemsCopy() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.items))
	for k, v := range r.items {
		out[k] = v
	}
	return out
}

type view struct{ List []int }

func (r *reg) View() view {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return view{List: r.list} // want "r\.list \(reference type\) escapes View while only an RLock is held"
}

// Reading through the fields retains no reference.
func (r *reg) Reads(k string) (int, []int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n + r.items[k], append([]int(nil), r.list...)
}

// Mutate holds the write lock: writers hand out ownership deliberately.
func (r *reg) Mutate() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.list
}

func (r *reg) unexported() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.list
}

func (r *reg) Allowed() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	//botvet:ignore sharedslice fixture exercises the ignore directive
	return r.list
}
`}},
		{name: "wireframe/basic", files: map[string]string{"fix/fix.go": `package fix

//botvet:wire
type FrameKind byte

const (
	FrameData FrameKind = iota
	FrameAck
	FrameClose
)

// FrameAlias shares FrameData's value: covering either covers the value.
const FrameAlias FrameKind = FrameData

//botvet:wire
type Verb string

const (
	VerbJoin  Verb = "join"
	VerbLeave Verb = "leave"
)

// untracked has no directive; switches over it are never checked.
type untracked int

const (
	uA untracked = iota
	uB
)

func exhaustive(k FrameKind) {
	switch k {
	case FrameAlias:
	case FrameAck, FrameClose:
	}
}

func missingOne(k FrameKind) {
	switch k { // want "missing FrameClose"
	case FrameData:
	case FrameAck:
	default:
	}
}

func missingTwo(k FrameKind) {
	switch k { // want "missing FrameAck, FrameClose"
	case FrameData:
	}
}

func stringEnum(v Verb) {
	switch v { // want "missing VerbLeave"
	case VerbJoin:
	}
}

func audited(k FrameKind) {
	//botvet:ignore wireframe ack-only fast path, audited
	switch k {
	case FrameAck:
	}
}

func notTracked(u untracked) {
	switch u {
	case uA:
	}
}
`}},
		{name: "wireframe/inert", files: map[string]string{"fix/fix.go": `package fix

//botvet:wire
type empty byte // want "declares no package-level constants"

//botvet:wire
type wrong struct{} // want "must have an integer or string underlying type"
`}},
		// The member set is read from the declaring package.
		{name: "wireframe/xpkg", files: map[string]string{"fix/wire/wire.go": `package wire

//botvet:wire
type Kind uint8

const (
	KindSnap Kind = iota
	KindDelta
	KindBye
)
`, "fix/peer/peer.go": `package peer

import "fix/wire"

func handle(k wire.Kind) {
	switch k { // want "missing KindBye"
	case wire.KindSnap:
	case wire.KindDelta:
	}
}

func handleAll(k wire.Kind) {
	switch k {
	case wire.KindSnap, wire.KindDelta, wire.KindBye:
	}
}
`}},
		// deadexport: an export no non-test file uses, unless the table
		// keeps it; a method an interface reaches, or one used only
		// through a generic instantiation, is used; a row for a used name
		// or for nothing is stale.
		{name: "deadexport", audit: map[string]string{
			"fix.Kept": "fixture: a test elsewhere reads it",
			"fix.Used": "fixture: product code uses it now",
			"fix.Gone": "fixture: names nothing",
		}, files: map[string]string{"botscope/internal/fix/a.go": `package fix // want "audit row fix.Gone names nothing this package declares"

import "net/http"

func Dead() {} // want "fix.Dead is exported but no non-test code uses it"
func Kept() {}
func Used() {} // want "audit row fix.Used is stale"
func local() { Shared() }
func Shared() {}

type T struct{}

func (T) Dead()  {} // want "fix.T.Dead is exported but no non-test code uses it"
func (*T) Live() {}

// An interface's methods reach these: error, the error chain's Unwrap, a
// standard library interface of an imported package, an interface
// literal the program writes.
type Err struct{}

func (Err) Error() string { return "" }
func (Err) Unwrap() error { return nil }

type H struct{}

func (H) ServeHTTP(http.ResponseWriter, *http.Request) {}

type S struct{}

func (S) Status() int { return 0 }

// A generic type's methods are used through an instantiation.
type Box[V any] struct{ v V }

func (b Box[V]) Get() V       { return b.v }
func NewBox[V any](v V) Box[V] { return Box[V]{v} }
`, "botscope/internal/use/b.go": `package use

import "botscope/internal/fix"

var _ = []any{fix.Err{}, fix.H{}, fix.S{}}

func run(t *fix.T, s any) int {
	fix.Used()
	t.Live()
	if st, ok := s.(interface{ Status() int }); ok {
		return st.Status()
	}
	return fix.NewBox(1).Get()
}
`, "botscope/internal/fix/a_test.go": `package fix

func testOnly() { Dead(); T{}.Dead() }
`}},
		// deadexport's field half: a field, exported or not, that no
		// non-test selector reads is a finding; an assignment, op=, ++/--
		// or a composite-literal key writes and does not read; an embedded
		// field is not checked. Fields are read outside the program's
		// selectors when their struct is converted to an empty interface
		// (fmt, encoding/json), hashed as a map key or compared, or reached
		// from the facade's exported API by a library user.
		{name: "deadexport/fields", audit: map[string]string{
			"fix.w.Kept":  "fixture: a test elsewhere reads it",
			"fix.w.Stale": "fixture: product code reads it now",
			"fix.w.Gone":  "fixture: names no field",
		}, files: map[string]string{"botscope/internal/fix/a.go": `package fix // want "audit row fix.w.Gone names nothing this package declares"

import "fmt"

type inner struct{ Promoted int }

type w struct {
	inner
	Dead  int // want "fix.w.Dead is a field no non-test code reads"
	dead  int // want "fix.w.dead is a field no non-test code reads"
	Read  int
	Kept  int
	Stale int // want "audit row fix.w.Stale is stale"
}

func write() int {
	v := &w{Dead: 1, Kept: 2}
	v.dead = 3
	v.dead++
	v.Dead += 4
	return v.Read + v.Stale + v.Promoted
}

// Appending to a field and assigning it back writes it; any other use of
// the field, the append's elements included, reads it.
type grown struct {
	list []int // want "fix.grown.list is a field no non-test code reads"
	read []int
	into []int
}

func grow(g *grown) int {
	g.list = append(g.list, 1)
	g.read = append(g.read, 3)
	g.into = append(g.into, g.into...)
	return len(g.read)
}

// fmt reads every field of what it prints, through pointers.
type printed struct {
	shown int
	sub   *nested
}

type nested struct{ deep int }

// A value passed as a non-empty interface is read through its methods.
type method struct{ n int } // want "fix.method.n is a field no non-test code reads"

func (method) String() string { return "" }

type pair struct{ a, b int }

func convert(seen map[pair]bool) string {
	var s fmt.Stringer = method{n: 1}
	seen[pair{a: 1, b: 2}] = true
	return fmt.Sprint(printed{shown: 1, sub: &nested{deep: 2}}) + s.String()
}

// The root package aliases Facade: a library user reads its exported
// fields, and the types they reach, but not its unexported ones.
type Facade struct {
	Out    int
	Sub    []Nested
	hidden int // want "fix.Facade.hidden is a field no non-test code reads"
}

type Nested struct{ Deep int }

func Open() Facade { return Facade{hidden: 1} }
`, "botscope/a.go": `package botscope

import "botscope/internal/fix"

type View = fix.Facade

func Open() View { return fix.Open() }
`, "botscope/internal/fix/a_test.go": `package fix

func testRead(v w) int { return v.Dead + v.dead }
`}},
		// paperlit: a salient literal outside internal/published that
		// equals a value published declares (a constant, a table row, a
		// field of one) is a copy, whatever its spelling; small or coarse
		// literals are not checked, published itself and tests are exempt,
		// and a table row keeps a coincidence until it matches nothing.
		{name: "paperlit", lits: map[string]string{
			"botscope/internal/synth:345": "fixture: a weight that equals a count by chance",
			"botscope/internal/synth:999": "fixture: matches nothing",
		}, files: map[string]string{"botscope/internal/published/p.go": `package published

const (
	MedianSec = 1766
	Share     = 0.767
	Count     = 345
	Small     = 7
	Coarse    = 0.55
	Copy      = 1766.0
)

var Table = map[string]float64{"US": 13738}

var Nested = map[string]struct{ Km float64 }{"pandora": {Km: 566}}
`, "botscope/internal/synth/a.go": `package synth // want "audit row botscope/internal/synth:999 matches no literal"

import "botscope/internal/published"

const durMedian = 1766.0 // want "1766.0 copies published.MedianSec"

var (
	median = 1766   // want "1766 copies published.MedianSec"
	hex    = 0x6e6  // want "0x6e6 copies published.MedianSec"
	share  = 0.767  // want "0.767 copies published.Share"
	us     = 13738  // want "13738 copies published.Table\[.US.\]"
	km     = 566.0  // want "566.0 copies published.Nested\[.pandora.\].Km"
	weight = 345
	near   = 1767
	small  = 7
	coarse = 0.55
	short  = 0.77
	read   = []any{published.MedianSec, published.Share, published.Count, published.Small, published.Coarse, published.Copy, published.Table, published.Nested}
	kept   = 1766 //botvet:ignore paperlit fixture exercises the ignore directive
)
`, "botscope/internal/synth/a_test.go": `package synth

var pinned = 1766
`}},
		// An audit drops a gate rule's finding; one without a reason does not.
		{name: "ignore/audited", files: map[string]string{"botscope/internal/stats/a.go": `package stats
func eq(a, b float64) bool { return a == b } //botvet:ignore floateq audited: fixture
`}},
		{name: "ignore/reasonless", files: map[string]string{"botscope/internal/stats/a.go": `package stats
func eq(a, b float64) bool { return a == b } /* want "float == comparison" "carries no reason" */ //botvet:ignore floateq
`}},
		// The report-time rules: an ignore with a reason covers its own
		// line and the next for the rule it names; without a reason it
		// covers nothing and is a finding where it stands; nothing in a
		// _test.go file is reported.
		{name: "ignore/wrap", extra: []rule{{"toy", toy}}, files: map[string]string{"example.com/wrap/a.go": `package wrap

func bad() {}

func plain() {
	bad() // want "call to bad"
}

func audited() {
	bad() //botvet:ignore toy fixture: same-line audit with a reason
	//botvet:ignore toy fixture: an audit on the line above covers the next line
	bad()
}

func reasonless() {
	bad() /* want "call to bad" "//botvet:ignore toy carries no reason" */ //botvet:ignore toy
}

// An audit names exactly one rule.
func otherRule() {
	bad() /* want "call to bad" */ //botvet:ignore floateq audited for a different rule
	bad() /* want "call to bad" "//botvet:ignore floateq carries no reason" */ //botvet:ignore floateq
}

func tooFar() {
	//botvet:ignore toy fixture: two lines above is out of reach

	bad() // want "call to bad"
}
`, "example.com/wrap/a_test.go": `package wrap

func inTest() {
	bad()
	bad() //botvet:ignore toy
}
`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := map[string][]*ast.File{}
			for _, name := range slices.Sorted(maps.Keys(tc.files)) {
				f, err := parser.ParseFile(fset, name, tc.files[name], parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				src[path.Dir(name)] = append(src[path.Dir(name)], f)
			}
			prog, err := newProgram(src)
			if err != nil {
				t.Fatal(err)
			}
			prog.audit, prog.lits = tc.audit, tc.lits
			checkWants(t, prog, check(prog, append(tc.extra, rules...)))
		})
	}
}

// wantRe pulls the double-quoted regexps out of a want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// checkWants matches each finding to one want on its line and reports
// what is left over on either side.
func checkWants(t *testing.T, prog *program, found []finding) {
	t.Helper()
	wants := map[line][]*regexp.Regexp{}
	prog.comments(func(c *ast.Comment) {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
		if rest, ok := strings.CutPrefix(text, "want "); ok {
			for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
				wants[lineOf(c.Pos())] = append(wants[lineOf(c.Pos())], regexp.MustCompile(m[1]))
			}
		}
	})
	for _, d := range found {
		key := lineOf(d.pos)
		i := slices.IndexFunc(wants[key], func(re *regexp.Regexp) bool { return re.MatchString(d.text) })
		if i < 0 {
			t.Errorf("unexpected finding at %s:%d: %s: %s", key.file, key.n, d.rule, d.text)
			continue
		}
		wants[key] = slices.Delete(wants[key], i, i+1)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("missing finding at %s:%d: want match for %q", key.file, key.n, re)
		}
	}
}
