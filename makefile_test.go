package botscope

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMakeTargetsExist keeps the Makefile and the places that tell people
// (and CI) to run it in step: every `make <target>` in the workflow, the
// README and the verify skill must be a rule the Makefile defines, and
// .PHONY may list only rules that exist. Deleting or renaming a target
// is exactly when one of these goes stale.
func TestMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_./-]+):(?:[^=]|$)`).FindAllSubmatch(mk, -1) {
		defined[string(m[1])] = true
	}
	if !defined["verify"] {
		t.Fatalf("Makefile rules not parsed: %v", defined)
	}

	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(mk)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	for _, name := range strings.Fields(string(phony[1])) {
		if !defined[name] {
			t.Errorf("Makefile: .PHONY lists %q, which has no rule", name)
		}
	}

	// A reference is `make <target>` in backticks, at the start of a
	// (possibly indented or commented) line, or after a workflow `run:`.
	ref := regexp.MustCompile("(?m)(?:`|^[ \t#]*|run:[ \t]*)make ([a-z][a-z0-9-]*)")
	for _, path := range []string{".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		refs := ref.FindAllSubmatch(text, -1)
		if len(refs) == 0 {
			t.Errorf("%s: no make references found; the pattern has drifted from the file", path)
		}
		for _, m := range refs {
			if !defined[string(m[1])] {
				t.Errorf("%s: `make %s` is not a Makefile target", path, m[1])
			}
		}
	}
}
