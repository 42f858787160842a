package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// namePattern is the contract every reported metric name must satisfy:
// letters, digits, '_', '.' and '-', starting with a letter or digit, at
// most 64 characters.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName rejects a metric name outside the contract.
func checkName(name string) error {
	if !namePattern.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, namePattern)
	}
	return nil
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100), or NaN
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile returns the highest of the reported percentiles that has at
// least ten samples beyond it (50 when even the median has fewer).
func tailPercentile(n int) float64 {
	best := 50.0
	// Percentiles in thousandths keep the arithmetic exact.
	for _, q := range []int{900, 990, 999} {
		if n*(1000-q) >= 10*1000 {
			best = float64(q) / 10
		}
	}
	return best
}

// quantiles mirrors Python's statistics.quantiles(data, n) with its default
// "exclusive" method: the n-1 cut points dividing data into n groups. Like
// Python, it needs at least two data points (nil otherwise).
func quantiles(data []float64, n int) []float64 {
	if n < 1 || len(data) < 2 {
		return nil
	}
	s := sorted(data)
	ld := len(s)
	out := make([]float64, 0, n-1)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/float64(n))
	}
	return out
}

// spread is the interquartile range as a share of the median: the steadiness
// figure the benchmark's bounds are checked against.
func spread(xs []float64) float64 {
	q := quantiles(xs, 4)
	if len(q) != 3 || q[1] == 0 {
		return math.NaN()
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// timing accumulates one named duration series, in milliseconds.
type timing struct {
	samples []float64
}

func (t *timing) add(ms float64) { t.samples = append(t.samples, ms) }

func (t *timing) total() float64 {
	sum := 0.0
	for _, v := range t.samples {
		sum += v
	}
	return sum
}

// summary renders count, median, tail percentile and total.
func (t *timing) summary() string {
	n := len(t.samples)
	if n == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4f", n, median(t.samples))
	if p := tailPercentile(n); p > 50 {
		s += fmt.Sprintf(" p%g=%.4f", p, percentile(t.samples, p))
	}
	return s + fmt.Sprintf(" total=%.1f", t.total())
}
