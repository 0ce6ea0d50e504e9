package sharedslice_test

import (
	"testing"

	"botscope/internal/analysis/atest"
	"botscope/internal/analysis/sharedslice"
)

func TestBasic(t *testing.T) {
	atest.Run(t, "testdata/basic", sharedslice.Analyzer, "example.com/a")
}

// TestRLock runs the fixture of the former snapshotalias analyzer: map and
// slice fields escaping an exported method that holds only an RLock.
func TestRLock(t *testing.T) {
	atest.Run(t, "testdata/rlock", sharedslice.Analyzer, "example.com/basic")
}
