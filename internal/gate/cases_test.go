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
		extra []rule // run with the gate's
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
		{name: "sharedslice/basic", files: map[string]string{"example.com/a/a.go": `package a

import "sort"

type Index struct {
	families []string
	counts   []int
}

//botscope:shared
func (ix *Index) Families() []string { return ix.families }

//botscope:shared
func (ix *Index) Counts() []int { return ix.counts }

//botscope:shared
func Shared() []int { return sharedData }

var sharedData = []int{3, 1, 2}

// Fresh returns a private copy; it is not annotated.
func Fresh() []int { return append([]int(nil), sharedData...) }

func badIndexWrite(ix *Index) {
	fams := ix.Families()
	fams[0] = "zeus"                                                // want "write into shared slice fams"
	sort.Slice(ix.Families(), func(i, j int) bool { return false }) // want "sort.Slice reorders shared slice Families\(\)"
}

func badVar() {
	v := Shared()
	v[0]++               // want "write into shared slice v"
	sort.Ints(v)         // want "sort.Ints reorders shared slice v"
	copy(v, []int{9, 9}) // want "copy into shared slice v"
	head := Shared()[:2]
	head[1] = 5 // want "write into shared slice head"
}

func badAppend(ix *Index) []int {
	c := ix.Counts()
	c = append(c, 7) // want "append to shared slice c"
	return c
}

func goodCloneThenSort() {
	v := append([]int(nil), Shared()...)
	sort.Ints(v)
	v[0] = 9
}

func goodRebind() {
	v := Shared()
	v = Fresh()
	v[0] = 1
}

func goodReadOnly(ix *Index) int {
	total := len(ix.Families()[0])
	for _, c := range ix.Counts() {
		total += c
	}
	return total
}

func allowedException() {
	v := Shared()
	v[0] = 1 //botvet:ignore sharedslice fixture exercises the ignore directive
}
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
		// The producer's directive reaches a caller in another package.
		{name: "sharedslice/xpkg", files: map[string]string{"example.com/store/store.go": `package store

type Store struct{ rows []int }

//botscope:shared
func (s *Store) Rows() []int { return s.rows }
`, "example.com/use/use.go": `package use

import (
	"slices"

	"example.com/store"
)

func bad(s *store.Store) {
	rows := s.Rows()
	slices.Sort(rows) // want "slices.Sort reorders shared slice rows"
}

func good(s *store.Store) []int { return slices.Sorted(slices.Values(s.Rows())) }
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
