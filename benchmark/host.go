package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostSample is a reading of the counters that explain a disturbed run:
// CPU time the hypervisor stole from this guest and time runnable tasks
// waited for a CPU (PSI "some"). Both are cumulative; a run reports the
// delta over its timed region. A counter the host does not expose reads 0.
type hostSample struct {
	stealTicks, totalTicks uint64 // /proc/stat "cpu" line, USER_HZ ticks
	psiSomeMicros          uint64 // /proc/pressure/cpu "some ... total="
}

func readHost() hostSample {
	var h hostSample
	if line := firstLineWithPrefix("/proc/stat", "cpu "); line != "" {
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseUint(f, 10, 64) // malformed field reads 0, like a missing counter
			h.totalTicks += v
			if i == 7 {
				h.stealTicks = v
			}
		}
	}
	if line := firstLineWithPrefix("/proc/pressure/cpu", "some "); line != "" {
		if _, v, ok := strings.Cut(line, "total="); ok {
			h.psiSomeMicros, _ = strconv.ParseUint(strings.TrimSpace(v), 10, 64) // same: 0 when unreadable
		}
	}
	return h
}

// stealPct is the share of all CPU ticks between two samples that were
// stolen; psiPct the share of wall time some task waited for a CPU.
func (h hostSample) stealPct(since hostSample) float64 {
	if h.totalTicks <= since.totalTicks {
		return 0
	}
	return 100 * float64(h.stealTicks-since.stealTicks) / float64(h.totalTicks-since.totalTicks)
}

func (h hostSample) psiPct(since hostSample, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		return 0
	}
	return 100 * float64(h.psiSomeMicros-since.psiSomeMicros) / 1e6 / wallSeconds
}

// peakRSSMB is the measuring process's VmHWM in MB (0 where /proc is
// absent).
func peakRSSMB() float64 {
	line := firstLineWithPrefix("/proc/self/status", "VmHWM:")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0
	}
	kb, _ := strconv.ParseFloat(fields[1], 64) // 0 when unreadable, reported as such
	return kb / 1024
}

func firstLineWithPrefix(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			return sc.Text()
		}
	}
	return ""
}

// goSample reads the Go runtime's cumulative allocation and GC counters.
type goSample struct {
	totalAlloc       uint64
	numGC, forcedGC  uint32
	heapInuse        uint64
	gcCPU, totalCPUs float64 // cpu-seconds
}

// add accumulates the growth of the cumulative counters from since to g.
func (sum *goSample) add(g, since goSample) {
	sum.totalAlloc += g.totalAlloc - since.totalAlloc
	sum.numGC += g.numGC - since.numGC
	sum.forcedGC += g.forcedGC - since.forcedGC
	sum.gcCPU += g.gcCPU - since.gcCPU
	sum.totalCPUs += g.totalCPUs - since.totalCPUs
}

func readGo() goSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := goSample{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, forcedGC: ms.NumForcedGC, heapInuse: ms.HeapInuse}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPUs = samples[1].Value.Float64()
	}
	return g
}

// printRunValidity prints what a reader needs to judge whether a run is
// comparable with another: toolchain, core counts, and a warning when the
// scheduler is told to use more threads than the host has cores (such a
// run must not be labelled multicore).
func printRunValidity(w io.Writer) {
	fmt.Fprintf(w, "run: %s %s/%s host.num_cpu=%d host.gomaxprocs=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(w, "warning: GOMAXPROCS %d exceeds the host's %d CPUs; threads share cores, do not read this run as multicore\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
}
