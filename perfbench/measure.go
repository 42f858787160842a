package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one benchmark run reports: the correctness gate, the
// operation ledger behind error_rate, and the metrics in report order.
type result struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	// sampleNote states the window's round and sample counts.
	sampleNote string
	roundNotes []string
}

// add records a metric.
func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

// check counts one attempted operation and, when ok is false, one failure
// with its reason.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds n attempted operations of which failed failed.
func (r *result) count(n, failed int, what string) {
	r.attempted += n
	if failed > 0 {
		r.failed += failed
		r.problems = append(r.problems, fmt.Sprintf("%d of %d %s failed", failed, n, what))
	}
}

// correct reports whether the run passed its correctness gate.
func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// errorRate is failed operations over attempted ones.
func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// meter accumulates the timed window: only work run inside measure counts
// towards wall time, CPU time and explored inputs.
type meter struct {
	wall   time.Duration
	cpu    time.Duration
	inputs int
}

// measure times fn, which returns the number of inputs it explored, and
// returns that call's wall and CPU time. It collects garbage first, outside
// the window: every round then starts from the same heap state, instead of
// whatever phase the previous round left the collector in.
func (m *meter) measure(fn func() int) (wall, cpu time.Duration) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	n := fn()
	wall, cpu = time.Since(t0), cpuTime()-c0
	m.wall += wall
	m.cpu += cpu
	m.inputs += n
	return wall, cpu
}

// goStats samples the Go runtime counters the go.* metrics are derived from.
type goStats struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, totalCPU              float64
}

// since returns the counters' growth from an earlier sample, added to acc.
func (g goStats) since(earlier, acc goStats) goStats {
	return goStats{
		allocBytes: acc.allocBytes + g.allocBytes - earlier.allocBytes,
		allocs:     acc.allocs + g.allocs - earlier.allocs,
		gcCycles:   acc.gcCycles + g.gcCycles - earlier.gcCycles,
		gcCPU:      acc.gcCPU + g.gcCPU - earlier.gcCPU,
		totalCPU:   acc.totalCPU + g.totalCPU - earlier.totalCPU,
	}
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goStats{
		allocBytes: uint64(val(0)),
		allocs:     uint64(val(1)),
		gcCycles:   uint64(val(2)),
		gcCPU:      val(3),
		totalCPU:   val(4),
	}
}
