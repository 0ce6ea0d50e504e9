package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-zzz"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunMissingInputFile(t *testing.T) {
	if err := run(context.Background(), []string{"-in", "/nonexistent/attacks.jsonl"}); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestRunSnapshotAndIn: two store sources are refused rather than one
// silently winning.
func TestRunSnapshotAndIn(t *testing.T) {
	err := run(context.Background(), []string{"-in", "attacks.jsonl", "-snapshot", "work.bscs"})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-in with -snapshot: %v, want a mutual-exclusion error", err)
	}
}

func TestRunBadListenAddr(t *testing.T) {
	// A malformed address fails fast after the workload is built; keep the
	// workload tiny so the test stays quick.
	if err := run(context.Background(), []string{"-scale", "0.005", "-addr", "256.0.0.1:bad"}); err == nil {
		t.Error("malformed listen address accepted")
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-scale", "0.005", "-addr", "127.0.0.1:0"})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("cancelled run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}
