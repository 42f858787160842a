package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want []float64 // statistics.quantiles(data, n=4)
	}{
		{[]float64{1, 2, 3, 4}, []float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, []float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, []float64{0, 3, 6}}, // extrapolates, as Python does
	}
	for _, c := range cases {
		got := quantiles(c.data, 4)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v) = %v, want %v", c.data, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quantiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if quantiles(nil, 4) != nil || quantiles([]float64{7}, 4) != nil {
		t.Error("quantiles of fewer than two points should be nil")
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	// quartiles 2.75 / 5.5 / 8.25 → (8.25-2.75)/5.5 = 1.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if !math.IsNaN(spread([]float64{0, 0})) {
		t.Error("spread around a zero median should be NaN")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples should give NaN")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTimingSummary(t *testing.T) {
	var tm timing
	if tm.summary() != "n=0" {
		t.Errorf("empty summary = %q", tm.summary())
	}
	for i := 1; i <= 100; i++ {
		tm.add(float64(i))
	}
	s := tm.summary()
	for _, want := range []string{"n=100", "p50=50.5000", "p90=90.0000", "total=5050.0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q lacks %q", s, want)
		}
	}
}

func TestCheckName(t *testing.T) {
	for _, ok := range []string{"inputs_per_s", "checker.origin-validity.ms", "9lives", "a.b_c-d"} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".leading", "_x", "has space", "slash/name", "ünicode", strings.Repeat("x", 65)} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted an invalid name", bad)
		}
	}
}

func TestLayerRegistryNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range layerMetrics() {
		if err := checkName(m.name); err != nil {
			t.Error(err)
		}
		if seen[m.name] {
			t.Errorf("per-layer metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	if n := len(seen); n == 0 || n > 128 {
		t.Errorf("%d per-layer metrics; want 1..128", n)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.record("unit", 0, 0, at(0), at(100))
	tr.record("child", parent, 1, at(10), at(30))
	tr.record("child", parent, 2, at(20), at(40))  // overlaps the first
	tr.record("child", parent, 3, at(90), at(120)) // runs past the parent
	tr.record("unit", 0, 0, at(200), at(210))      // no children
	self := tr.selfTimes("unit", "")
	if len(self.samples) != 2 || !near(self.samples[0], 60) || !near(self.samples[1], 10) {
		t.Errorf("self times = %v, want [60 10]", self.samples)
	}
	if only := tr.selfTimes("unit", "child"); len(only.samples) != 1 {
		t.Errorf("selfTimes with a required child = %v, want one sample", only.samples)
	}
	open := tr.open("pending", 0, 0)
	if got := tr.timings(); got["pending"] != nil || len(got["child"].samples) != 3 {
		t.Errorf("timings = %v; an open span must not count", got)
	}
	tr.close(open)
	if tr.timings()["pending"] == nil {
		t.Error("a closed span must count")
	}
}
