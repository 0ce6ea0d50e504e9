package nodeterm_test

import (
	"testing"

	"botscope/internal/analysis/atest"
	"botscope/internal/analysis/nodeterm"
)

func TestScoped(t *testing.T) {
	atest.Run(t, "testdata/scoped", nodeterm.Analyzer, "botscope/internal/synth")
}

func TestUnscoped(t *testing.T) {
	atest.Run(t, "testdata/unscoped", nodeterm.Analyzer, "example.com/outside")
}

// TestGenerator runs the fixtures of the former rngstream analyzer: in a
// generator package a global draw or a wall-clock read is reported once
// (the harness fails on a second diagnostic for the line), and a seeded
// draw inside a map range is reported too.
func TestGenerator(t *testing.T) {
	atest.Run(t, "testdata/generator", nodeterm.Analyzer, "botscope/internal/synth")
}

func TestGeneratorUnscoped(t *testing.T) {
	atest.Run(t, "testdata/generator_unscoped", nodeterm.Analyzer, "example.com/outside")
}
