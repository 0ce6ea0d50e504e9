// Botvet is the project-specific static-analysis gate: the eight botscope
// analyzers bundled into a unitchecker binary that `go vet` drives over
// every package:
//
//	go build -o bin/botvet ./cmd/botvet
//	go vet -vettool=$(pwd)/bin/botvet ./...
//
// `make botvet` (and `make verify`) wire this up. The binary has no modes
// of its own; everything else is go vet's:
//
//	go vet -vettool=bin/botvet -goleak ./...          only the named analyzers
//	go vet -vettool=bin/botvet -goleak=false ./...    all but the named ones
//	go vet -vettool=bin/botvet -json ./...            machine-readable (make botvet-json)
//
// Exit codes follow the `go vet` convention the CI gate relies on:
//
//	0  every analyzer ran and reported nothing
//	1  at least one diagnostic was reported (or a package failed to build)
//	2  the tool itself was misused (bad flags, unreadable vet config)
//
// (`go vet -json` exits 0 even with findings; read its output, not its
// status.) Each analyzer encodes an invariant the paper reproduction
// depends on; see DESIGN.md §7 for what they enforce and why. Diagnostics
// in _test.go files are dropped, and the one per-line exception is
// "//botvet:ignore <analyzer> <reason>" on the line or the line above —
// without a reason it suppresses nothing and is reported itself.
package main

import (
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/unitchecker"

	"botscope/internal/analysis/ctxflow"
	"botscope/internal/analysis/floateq"
	"botscope/internal/analysis/goleak"
	"botscope/internal/analysis/lockguard"
	"botscope/internal/analysis/mmaplife"
	"botscope/internal/analysis/nodeterm"
	"botscope/internal/analysis/sharedslice"
	"botscope/internal/analysis/wireframe"
)

// analyzers is the full gate. The Makefile's BOTVET_ANALYZERS list names
// the same eight for botvet-timed; TestMakefileListsEveryAnalyzer keeps
// the two in step.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	floateq.Analyzer,
	goleak.Analyzer,
	lockguard.Analyzer,
	mmaplife.Analyzer,
	nodeterm.Analyzer,
	sharedslice.Analyzer,
	wireframe.Analyzer,
}

func main() { unitchecker.Main(analyzers...) }
