package main

// timedLayer names the three metrics a traced timing is reported as: its
// median, its 99th percentile and its sample count.
type timedLayer struct {
	span           string
	ms, p99, count string
}

func timed(span string) timedLayer {
	return timedLayer{span: span, ms: span + ".ms", p99: span + ".p99_ms", count: span + ".count"}
}

// timedLayers are the per-layer timings, in report order. Each is the
// distribution of one span name in the traced run.
var timedLayers = []timedLayer{
	timed("cluster.reset"),
	timed("cluster.cold_restore"),
	timed("cluster.cut"),
	timed("netem.execute"),
	timed("checkpoint.store_build"),
	timed("checkpoint.ring_push"),
	timed("concolic.solve"),
	timed("fuzz.corpus"),
	timed("checker.check"),
	timed("checker.origin-validity"),
	timed("checker.reachability"),
	timed("checker.loop-freedom"),
	timed("checker.convergence"),
	timed("checker.node-health"),
	timed("dice.unit"),
	{span: "dice.orchestration.self", ms: "dice.orchestration.self_ms", p99: "dice.orchestration.self_p99_ms", count: "dice.orchestration.self_count"},
	timed("live.campaign"),
	timed("live.minimize"),
}

// counterLayers are the per-layer counts and ratios, in report order.
var counterLayers = []metric{
	{name: "cluster.cold_build.count", unit: "count"},
	{name: "netem.events_per_input", unit: "count"},
	{name: "checkpoint.epoch_bytes", unit: "B"},
	{name: "checkpoint.delta_bytes", unit: "B"},
	{name: "concolic.solver_queries", unit: "count"},
	{name: "concolic.sat_ratio", unit: "ratio"},
	{name: "concolic.paths_per_execution", unit: "ratio"},
	{name: "checker.violations_per_check", unit: "ratio"},
	{name: "dice.unique_detection_ratio", unit: "ratio"},
	{name: "live.minimize.replays", unit: "count"},
	{name: "live.minimize.shrink_ratio", unit: "ratio"},
	{name: "live.dedupe.saved_fraction", unit: "ratio"},
	{name: "live.reverified_ratio", unit: "ratio"},
	{name: "control.lease.granted_ratio", unit: "ratio"},
	{name: "control.reassigned", unit: "count"},
	{name: "go.alloc_bytes_per_input", unit: "B"},
	{name: "go.allocs_per_input", unit: "count"},
	{name: "go.gc_cpu_fraction", unit: "ratio"},
	{name: "go.gc_count", unit: "count"},
	{name: "trace.untraced_inputs_per_s", unit: "1/s"},
	{name: "trace.traced_inputs_per_s", unit: "1/s"},
	{name: "trace.overhead_pct", unit: "%"},
}

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit, in report order. A layer a workload does not exercise reports 0.
func layerMetrics() []metric {
	var out []metric
	for _, t := range timedLayers {
		out = append(out, metric{name: t.ms, unit: "ms"}, metric{name: t.p99, unit: "ms"}, metric{name: t.count, unit: "count"})
	}
	for _, ep := range controlEndpoints {
		p := "control." + ep
		out = append(out,
			metric{name: p + ".ms", unit: "ms"},
			metric{name: p + ".p99_ms", unit: "ms"},
			metric{name: p + ".frames", unit: "count"},
			metric{name: p + ".bytes", unit: "B"})
	}
	return append(out, counterLayers...)
}

// layerReport collects per-layer values; unset metrics report 0.
type layerReport map[string]float64

// setTiming fills a timing's three metrics.
func (l layerReport) setTiming(t timedLayer, tm *timing) {
	if tm == nil || len(tm.samples) == 0 {
		return
	}
	l[t.ms] = median(tm.samples)
	l[t.p99] = percentile(tm.samples, 99)
	l[t.count] = float64(len(tm.samples))
}

// emit adds every per-layer metric to the result, in registry order.
func (l layerReport) emit(res *result) {
	for _, m := range layerMetrics() {
		res.add(m.name, m.unit, l[m.name])
	}
}
