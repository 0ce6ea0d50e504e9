// Package goleak defines the SSA-tier botvet analyzer that proves every
// goroutine launched outside tests joinable or cancellable. The serve tier
// is an always-on multi-tenant plane: a goroutine that nothing can stop is
// a slow outage (leaked per connection or per request), not a test flake.
//
// A goroutine's launched function is *joinable* when either:
//
//   - it is cancellable: it reaches a channel receive — <-ctx.Done(), a
//     done-channel receive, a select communication, or a for-range over a
//     channel (the bounded work-queue pattern: closing the queue ends the
//     goroutine) — or a (*sync.WaitGroup).Done call, directly or through
//     static calls (same-package bodies are traversed, cross-package
//     callees consult exported facts); or
//   - it provably runs to completion: its own CFG has no cycle and every
//     channel send in it targets a provably buffered channel (the one-shot
//     result-channel pattern, `errc := make(chan error, 1)`). Calls are
//     assumed to return here — the proof is about the launched body's own
//     shape, which keeps the check useful without whole-program
//     termination analysis.
//
// The distinction matters: calling a run-to-completion helper does NOT
// make a looping goroutine stoppable, so only cancellability propagates
// through calls; run-to-completion applies to the launched function
// itself.
//
// Anything else is reported at the go statement: loops with no receive,
// sends that can block forever on unbuffered or unknown channels, and
// launches whose target cannot be resolved statically.
//
// Independently, `time.After` inside a select that sits on a CFG cycle is
// reported wherever it appears: each iteration allocates a timer the
// runtime holds until it fires, which under a tight retry loop is a leak
// with a wall-clock fuse. Hoist a time.Ticker or a reusable time.Timer.
package goleak

import (
	"go/types"

	"golang.org/x/tools/go/analysis"

	"botscope/internal/analysis/ssabuild"
	"botscope/internal/analysis/vetutil"
)

var Analyzer = vetutil.Wrap(&analysis.Analyzer{
	Name:      "goleak",
	Doc:       "prove every goroutine launched outside tests joinable or cancellable; flag timer churn in select loops",
	Requires:  []*analysis.Analyzer{ssabuild.Analyzer},
	FactTypes: []analysis.Fact{(*joinableFact)(nil)},
	Run:       run,
})

// joinableFact marks a function proven joinable, so goroutines in other
// packages launching it (directly) inherit the proof. Cancel records
// whether the proof is cancellability — only that flavour transfers to
// callers through call chains; a run-to-completion proof covers the
// function itself as a goroutine body and nothing more.
type joinableFact struct {
	Cancel bool
}

func (*joinableFact) AFact() {}

func (f *joinableFact) String() string {
	if f.Cancel {
		return "cancellable"
	}
	return "runs to completion"
}

type checker struct {
	pass       *analysis.Pass
	ssa        *ssabuild.SSA
	cancelMemo map[*ssabuild.Func]bool
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:       pass,
		ssa:        pass.ResultOf[ssabuild.Analyzer].(*ssabuild.SSA),
		cancelMemo: map[*ssabuild.Func]bool{},
	}

	// Export proofs for every named function first, so downstream packages
	// can launch them.
	for _, f := range c.ssa.Funcs {
		if f.Obj == nil {
			continue
		}
		if c.cancellable(f, map[*ssabuild.Func]bool{}) {
			pass.ExportObjectFact(f.Obj, &joinableFact{Cancel: true})
		} else if runsToCompletion(f) {
			pass.ExportObjectFact(f.Obj, &joinableFact{})
		}
	}

	for _, f := range c.ssa.Funcs {
		for _, g := range f.Gos {
			c.checkGo(g)
		}
		for _, call := range f.Calls {
			if call.Callee == nil || !call.InSelect || !call.InLoop {
				continue
			}
			if call.Callee.Pkg() == nil || call.Callee.Pkg().Path() != "time" || call.Callee.Name() != "After" {
				continue
			}
			pass.Reportf(call.Node.Pos(),
				"time.After in a select loop allocates a timer every iteration that the runtime holds until it fires; hoist a time.Ticker or a reusable time.Timer outside the loop")
		}
	}
	return nil, nil
}

// checkGo verifies one goroutine launch.
func (c *checker) checkGo(g ssabuild.Go) {
	switch {
	case g.Lit != nil:
		target := c.ssa.FuncFor(g.Lit)
		if target == nil || !c.joinable(target) {
			c.pass.Reportf(g.Node.Pos(),
				"goroutine is not provably joinable or cancellable: the literal reaches no channel receive, WaitGroup.Done, or run-to-completion proof, so nothing can stop it")
		}
	case g.Callee != nil:
		if target := c.ssa.FuncOf(g.Callee); target != nil {
			if c.joinable(target) {
				return
			}
		} else if g.Callee.Pkg() != nil && g.Callee.Pkg() != c.pass.Pkg {
			// As the goroutine root, either proof flavour suffices.
			if c.pass.ImportObjectFact(g.Callee, &joinableFact{}) {
				return
			}
		}
		c.pass.Reportf(g.Node.Pos(),
			"goroutine launching %s is not provably joinable or cancellable: it reaches no channel receive, WaitGroup.Done, or run-to-completion proof, so nothing can stop it", g.Callee.Name())
	default:
		c.pass.Reportf(g.Node.Pos(),
			"goroutine launches a dynamic target the SSA tier cannot resolve; launch a named function or literal so joinability is provable")
	}
}

// joinable decides a goroutine root: cancellable, or a body that provably
// runs to completion.
func (c *checker) joinable(f *ssabuild.Func) bool {
	return c.cancellable(f, map[*ssabuild.Func]bool{}) || runsToCompletion(f)
}

// runsToCompletion is the root-level structural proof: no CFG cycle and
// only provably buffered sends. Calls are assumed to return.
func runsToCompletion(f *ssabuild.Func) bool {
	if f.HasLoop {
		return false
	}
	for _, s := range f.Sends {
		if !s.Buffered {
			return false
		}
	}
	return true
}

// cancellable reports whether f reaches a channel receive or a
// WaitGroup.Done, directly or through static calls. Memoized; visited
// breaks call cycles (a cycle with no cancel point on it proves nothing).
func (c *checker) cancellable(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	if v, ok := c.cancelMemo[f]; ok {
		return v
	}
	if visited[f] {
		return false
	}
	visited[f] = true
	ok := c.decideCancellable(f, visited)
	delete(visited, f)
	c.cancelMemo[f] = ok
	return ok
}

func (c *checker) decideCancellable(f *ssabuild.Func, visited map[*ssabuild.Func]bool) bool {
	if len(f.Recvs) > 0 {
		return true
	}
	for _, call := range f.Calls {
		if call.Callee == nil {
			continue
		}
		if isWaitGroupDone(call.Callee) {
			return true
		}
		if target := c.ssa.FuncOf(call.Callee); target != nil {
			if c.cancellable(target, visited) {
				return true
			}
			continue
		}
		if call.Callee.Pkg() != nil && call.Callee.Pkg() != c.pass.Pkg {
			var fact joinableFact
			if c.pass.ImportObjectFact(call.Callee, &fact) && fact.Cancel {
				return true
			}
		}
	}
	return false
}

// isWaitGroupDone matches (*sync.WaitGroup).Done.
func isWaitGroupDone(fn *types.Func) bool {
	if fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && vetutil.IsNamed(recv.Type(), "sync", "WaitGroup")
}
