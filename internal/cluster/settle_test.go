package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Settled is settled for the external test package.
var Settled = settled

// settled fails the test unless, within 2 s, every goroutine running
// botscope code has exited — test goroutines aside — and lists the stacks
// of those that did not. Called once a cluster is closed, it is the
// runtime form of "every goroutine the cluster starts is cancellable".
func settled(t testing.TB) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := strayGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived shutdown:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// strayGoroutines returns the stacks of every goroutine with a
// botscope/internal/ frame that the testing package did not start.
func strayGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "botscope/internal/") && !strings.Contains(g, "testing.tRunner(") {
			left = append(left, g)
		}
	}
	return left
}
