// Command perfbench is the repository benchmark: it runs one DiCE workload
// for a fixed time, checks that its detections are correct, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run) as a JSON object on the last line of standard output.
//
// Usage:
//
//	perfbench --workload campaign-demo27 --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, o runOptions, res *result, out io.Writer) error
}

// runOptions are the parsed command-line settings of one run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	record   string
}

func workloads() []workload {
	d27 := campaignWorkload{gen: demo27, instances: 4, inputs: 216, fuzzSeeds: 8, workers: 2}
	return []workload{
		{
			name: "campaign-demo27",
			why:  "E8 campaign on the Figure 1 deployment: concolic solve, pooled reset, netem execution and checking share the work",
			run: func(ctx context.Context, o runOptions, res *result, out io.Writer) error {
				return runCampaign(ctx, o, d27, res, out)
			},
		},
		{
			name: "soak-demo27",
			why:  "E12 live soak: a cut and ring push every epoch, dedupe on idle epochs, minimizer replays on cold restores",
			run: func(ctx context.Context, o runOptions, res *result, out io.Writer) error {
				w := soakWorkload{gen: demo27, instances: 4, epochs: 4, inputsPerScenario: 6, fuzzSeeds: 2}
				return runSoak(ctx, o, w, res, out)
			},
		},
		{
			name: "campaign-gr100",
			why:  "100-router Gao-Rexford campaign, 1 input per unit: 12x larger state, so reset and checking dominate and solving barely runs",
			run: func(ctx context.Context, o runOptions, res *result, out io.Writer) error {
				w := campaignWorkload{gen: gr100, instances: 1, inputs: 100, fuzzSeeds: 8, workers: 2}
				return runCampaign(ctx, o, w, res, out)
			},
		},
		{
			name: "distributed-demo27",
			why:  "the demo27 campaign through the control plane and 2 in-process agents: the only workload on the control/agent wire",
			run: func(ctx context.Context, o runOptions, res *result, out io.Writer) error {
				w := d27
				w.agents = 2
				return runCampaign(ctx, o, w, res, out)
			},
		},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOptions
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (see -list)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: derives the seeds of the run's instances (deployment, topology, campaign and soak seeds)")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (default .bench_build/traces/<workload>-seed<N>.jsonl)")
	fs.StringVar(&o.record, "record", "", "after a correct run, write this seed's detection references into the given refs.json")
	list := fs.Bool("list", false, "list the workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads() {
			fmt.Fprintf(stdout, "%-20s %s\n", w.name, w.why)
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == o.workload {
			wl = &w
			break
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (see -list)\n", o.workload)
		return 2
	}
	if o.trace && o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", o.workload, o.seed)
	}

	res := &result{}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %gs window, trace %d\n", o.workload, o.seed, o.seconds, trace)
	if err := wl.run(context.Background(), o, res, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := report(res, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// report prints the human-readable block and returns the JSON result line.
func report(res *result, out io.Writer) (string, error) {
	for _, p := range res.problems {
		fmt.Fprintf(out, "  FAIL %s\n", p)
	}
	fmt.Fprintf(out, "  %-36s %d failed / %d attempted = %.4f\n", "error_rate", res.failed, res.attempted, res.errorRate())
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if err := checkName(m.name); err != nil {
			return "", err
		}
		if _, dup := metrics[m.name]; dup {
			return "", fmt.Errorf("metric %q reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %q has no finite value", m.name)
		}
		metrics[m.name] = value{Value: m.value, Unit: m.unit}
		fmt.Fprintf(out, "  %-36s %.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	return string(line), err
}

// setupTimes repeats fn reps times and returns the durations.
func setupTimes(reps int, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// window reports whether the timed window still has time left; at least
// minRounds rounds always run.
func window(m *meter, o runOptions, rounds, minRounds int) bool {
	return rounds < minRounds || m.wall.Seconds() < o.seconds
}

// endToEnd adds the end-to-end metrics from the timed window's rounds:
// throughput and CPU over the whole window, medians of the epoch and pause
// samples, and percentiles over every finding of the window.
func endToEnd(res *result, setup []float64, m *meter, rounds []roundStats) {
	var rates, epochs, pauses, findings []float64
	wire := 0
	for i, r := range rounds {
		rate := float64(r.inputs) / r.wall.Seconds()
		rates = append(rates, rate)
		for _, d := range r.epochs {
			epochs = append(epochs, d.Seconds())
		}
		for _, d := range r.pauses {
			pauses = append(pauses, float64(d)/float64(time.Millisecond))
		}
		var lat []float64
		for _, d := range r.findings {
			lat = append(lat, d.Seconds())
		}
		findings = append(findings, lat...)
		wire += r.wire
		res.roundNotes = append(res.roundNotes, fmt.Sprintf("round %d: %d inputs in %.3fs (%.1f/s), cpu %.3f ms/input, %d findings (p50 %.3fs, p99 %.3fs), epochs %v, pauses %v",
			i+1, r.inputs, r.wall.Seconds(), rate, float64(r.cpu)/float64(time.Millisecond)/float64(r.inputs),
			len(lat), median(lat), percentile(lat, 99), r.epochs, r.pauses))
	}
	res.add("setup_s", "s", median(setup))
	res.add("inputs_per_s", "1/s", float64(m.inputs)/m.wall.Seconds())
	res.add("cpu_ms_per_input", "ms", float64(m.cpu)/float64(time.Millisecond)/float64(m.inputs))
	res.add("peak_rss_mb", "MB", peakRSSMB())
	res.add("epoch_s", "s", median(epochs))
	res.add("checkpoint_pause_ms", "ms", median(pauses))
	res.add("finding_latency_p50_s", "s", median(findings))
	res.add("finding_latency_p99_s", "s", percentile(findings, 99))
	res.add("wire_kb_per_input", "KB", float64(wire)/1000/float64(m.inputs))
	res.sampleNote = fmt.Sprintf("%d rounds, %d inputs in %.3fs (round-to-round spread of inputs_per_s %.3f); samples: epochs %d, pauses %d, findings %d (p%g has >=10 beyond it)",
		len(rounds), m.inputs, m.wall.Seconds(), spread(rates), len(epochs), len(pauses), len(findings), tailPercentile(len(findings)))
}

// checkPrint compares a round's fingerprint with the expected one.
func checkPrint(res *result, what, got string, want reference) {
	res.check(want.matches(got), "%s detections differ from the reference (%d detections, sha256 %s; want %d, %s)",
		what, countLines(got), shortHash(got), want.Detections, want.SHA256)
}

func countLines(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, "\n") + 1
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
