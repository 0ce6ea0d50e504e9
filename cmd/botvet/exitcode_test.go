package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildTool compiles the botvet binary once into a temp dir and returns
// its path. Callers share one build per test binary invocation.
func buildTool(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "botvet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/botvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/botvet: %v\n%s", err, out)
	}
	return tool
}

// writeScratchModule materialises a one-file module in a temp dir so the
// exit-code contract can be pinned against go vet's driver behaviour
// rather than assumed.
func writeScratchModule(t *testing.T, mainSrc string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(mainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const cleanSrc = `package main

func main() {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
}
`

const dirtySrc = `package main

func main() {
	go func() {
		for {
		}
	}()
	select {}
}
`

const ignoredSrc = `package main

func main() {
	go func() { //botvet:ignore goleak audited: scratch fixture
		for {
		}
	}()
	select {}
}
`

const reasonlessSrc = `package main

func main() {
	go func() { //botvet:ignore goleak
		for {
		}
	}()
	select {}
}
`

// TestExitCodes pins the gate's observable contract: go vet with the
// botvet vettool exits 0 on clean code, 1 when any analyzer reports, 0
// again when the only finding carries a //botvet:ignore audit — and 1
// when that audit gives no reason, with both the finding and the bare
// ignore reported. The last two rows pin go vet's own per-analyzer flags,
// the documented replacement for the deleted -only/-skip driver.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet; skipped in -short")
	}
	tool := buildTool(t)

	cases := []struct {
		name     string
		src      string
		flags    []string
		wantExit int
		wantMsgs []string
	}{
		{name: "clean", src: cleanSrc, wantExit: 0},
		{name: "dirty", src: dirtySrc, wantExit: 1, wantMsgs: []string{"not provably joinable"}},
		{name: "ignored", src: ignoredSrc, wantExit: 0},
		{name: "reasonless-ignore", src: reasonlessSrc, wantExit: 1, wantMsgs: []string{"not provably joinable", "carries no reason"}},
		{name: "only-goleak", src: dirtySrc, flags: []string{"-goleak"}, wantExit: 1, wantMsgs: []string{"not provably joinable"}},
		{name: "all-but-goleak", src: dirtySrc, flags: []string{"-goleak=false"}, wantExit: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeScratchModule(t, tc.src)
			vet := exec.Command("go", append(append([]string{"vet", "-vettool=" + tool}, tc.flags...), "./...")...)
			vet.Dir = dir
			out, err := vet.CombinedOutput()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("go vet did not run: %v\n%s", err, out)
			}
			if exit != tc.wantExit {
				t.Errorf("exit = %d, want %d\n%s", exit, tc.wantExit, out)
			}
			for _, msg := range tc.wantMsgs {
				if !bytes.Contains(out, []byte(msg)) {
					t.Errorf("output does not mention %q:\n%s", msg, out)
				}
			}
		})
	}
}
