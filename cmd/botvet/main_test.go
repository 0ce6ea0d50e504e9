package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestBotvetCleanOnRepo builds the botvet binary and drives it over the
// whole module with go vet, asserting zero diagnostics: the annotation
// contracts (//botscope:shared, //botvet:wire) and the
// determinism scopes must hold on every package at all times.
func TestBotvetCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and re-typechecks the module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}

	tool := buildTool(t)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("botvet reported diagnostics on the repo:\n%s", out)
	}
}

// TestMakefileListsEveryAnalyzer keeps the Makefile's BOTVET_ANALYZERS —
// the list botvet-timed iterates — equal to the registered gate, so a new
// analyzer cannot go untimed and a removed one cannot linger as a flag go
// vet rejects.
func TestMakefileListsEveryAnalyzer(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^BOTVET_ANALYZERS := (.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no BOTVET_ANALYZERS := line")
	}
	var registered []string
	for _, a := range analyzers {
		registered = append(registered, a.Name)
	}
	if listed := strings.Fields(string(m[1])); !reflect.DeepEqual(listed, registered) {
		t.Errorf("Makefile BOTVET_ANALYZERS = %v\nmain.go analyzers      = %v", listed, registered)
	}
}
