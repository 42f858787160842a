package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/live"
)

// The traced run alternates untraced rounds (the tracing-overhead baseline
// and the go.* counters) with rounds that have every callback and property
// wrapper attached, for two thirds of the window; then a driver re-runs the
// last traced round's work with a span around every call into a layer, and
// must reproduce that round exactly.

// interleave alternates untraced and traced rounds until both kinds have run
// and together they fill two thirds of the window. Each pair of rounds
// shares one instance, so both kinds measure the same inputs under the same
// machine conditions. The go.* counters accumulate over the untraced rounds
// only.
func interleave(o runOptions, insts []*instance, untraced, traced func(*instance) (roundStats, error)) (u, t []roundStats, gs goStats, err error) {
	var wall time.Duration
	for i := 0; i < 2 || i%2 == 1 || wall.Seconds() < 2*o.seconds/3; i++ {
		in := insts[(i/2)%len(insts)]
		var st roundStats
		if i%2 == 0 {
			before := readGoStats()
			if st, err = untraced(in); err != nil {
				return nil, nil, gs, err
			}
			gs = readGoStats().since(before, gs)
			u = append(u, st)
		} else {
			if st, err = traced(in); err != nil {
				return nil, nil, gs, err
			}
			t = append(t, st)
		}
		wall += st.wall
	}
	return u, t, gs, nil
}

// goLayers fills the go.* metrics from the runtime counters' growth over the
// untraced rounds.
func goLayers(l layerReport, gs goStats, inputs int) {
	if inputs > 0 {
		l["go.alloc_bytes_per_input"] = float64(gs.allocBytes) / float64(inputs)
		l["go.allocs_per_input"] = float64(gs.allocs) / float64(inputs)
	}
	if gs.totalCPU > 0 {
		l["go.gc_cpu_fraction"] = gs.gcCPU / gs.totalCPU
	}
	l["go.gc_count"] = float64(gs.gcCycles)
}

// overhead fills the tracing-overhead metrics from the two kinds of rounds.
func overhead(l layerReport, untraced, traced []roundStats) {
	rate := func(rounds []roundStats) float64 {
		inputs, wall := 0, 0.0
		for _, r := range rounds {
			inputs += r.inputs
			wall += r.wall.Seconds()
		}
		return float64(inputs) / wall
	}
	u, t := rate(untraced), rate(traced)
	l["trace.untraced_inputs_per_s"] = u
	l["trace.traced_inputs_per_s"] = t
	l["trace.overhead_pct"] = 100 * (u - t) / u
}

// inputsOf totals the inputs of some rounds.
func inputsOf(rounds []roundStats) int {
	n := 0
	for _, r := range rounds {
		n += r.inputs
	}
	return n
}

// spanTimings fills every timing the tracer recorded.
func spanTimings(l layerReport, tr *tracer) {
	tm := tr.timings()
	tm["concolic.solve"] = tr.selfTimes("concolic.step", "concolic.execute")
	tm["dice.orchestration.self"] = tr.selfTimes("driver.unit", "")
	for _, t := range timedLayers {
		l.setTiming(t, tm[t.span])
	}
}

// finishTrace writes the spans and prints every timing with its samples.
func finishTrace(o runOptions, tr *tracer, l layerReport, res *result, out io.Writer) error {
	tm := tr.timings()
	for _, name := range sortedKeys(tm) {
		fmt.Fprintf(out, "  span %-28s %s\n", name, tm[name].summary())
	}
	l.emit(res)
	if err := tr.write(o.traceOut); err != nil {
		return err
	}
	fmt.Fprintf(out, "  spans written to %s\n", o.traceOut)
	return nil
}

// traceCampaign is the traced run of a campaign workload.
func traceCampaign(ctx context.Context, o runOptions, w campaignWorkload, insts []*instance, res *result, out io.Writer) error {
	tr := newTracer()
	l := layerReport{}

	round := func(in *instance, m *meter, wire *wireCounter, hooks roundHooks) (roundStats, *dice.CampaignResult, error) {
		var (
			st  roundStats
			r   *dice.CampaignResult
			err error
		)
		st.wall, st.cpu = m.measure(func() int {
			var inner roundStats
			inner, r, err = w.campaignRound(ctx, in, res, wire, hooks)
			st.inputs, st.print = inner.inputs, inner.print
			return inner.inputs
		})
		if err == nil {
			in.checkRound(res, "campaign", st.print)
		}
		return st, r, err
	}
	untracedRound := func(in *instance) (roundStats, error) {
		st, _, err := round(in, &meter{}, newWireCounter(false), roundHooks{})
		return st, err
	}

	// Traced rounds: unit spans from the campaign's events, checker spans
	// from wrapped properties, control spans from the handler wrapper.
	cc := &checkCounter{}
	wire := newWireCounter(true)
	var (
		last       *dice.CampaignResult
		lastIn     *instance
		units      []dice.Unit
		reassigned int
	)
	tracedRound := func(in *instance) (roundStats, error) {
		var (
			mu     sync.Mutex
			starts = map[int]time.Time{}
		)
		units = nil
		hooks := roundHooks{onEvent: func(ev dice.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case dice.EventUnitStart:
				starts[ev.UnitIndex] = time.Now()
				for len(units) <= ev.UnitIndex {
					units = append(units, dice.Unit{})
				}
				units[ev.UnitIndex] = ev.Unit
			case dice.EventUnitEnd:
				tr.record("dice.unit", 0, 0, starts[ev.UnitIndex], time.Now())
			}
		}}
		if w.agents == 0 {
			// Agents rebuild the standard properties by name, so only
			// in-process campaigns can carry wrapped ones.
			props := cc.wrap(checker.DefaultProperties(in.dep.topo), tr, 0, 0)
			hooks.extra = []dice.CampaignOption{dice.WithProperties(props...)}
		}
		st, r, err := round(in, &meter{}, wire, hooks)
		if err != nil {
			return st, err
		}
		if r.Remote != nil {
			reassigned += r.Remote.Reassigned
		}
		last, lastIn = r, in
		return st, nil
	}

	untraced, traced, gs, err := interleave(o, insts, untracedRound, tracedRound)
	if err != nil {
		return err
	}
	goLayers(l, gs, inputsOf(untraced))
	overhead(l, untraced, traced)
	perUnit := 0
	queries := 0
	for _, u := range last.Units {
		if u != nil {
			perUnit += len(u.Detections)
			queries += u.ExplorerStats.SolverQueries
		}
	}
	if perUnit > 0 {
		l["dice.unique_detection_ratio"] = float64(len(last.Detections)) / float64(perUnit)
	}
	for _, ep := range controlEndpoints {
		s := wire.endpoint(ep)
		p := "control." + ep
		if len(s.latency.samples) > 0 {
			l[p+".ms"] = median(s.latency.samples)
			l[p+".p99_ms"] = percentile(s.latency.samples, 99)
		}
		l[p+".frames"] = float64(s.frames)
		l[p+".bytes"] = float64(s.bytes)
	}
	if lease := wire.endpoint("lease"); lease.frames > 0 {
		l["control.lease.granted_ratio"] = float64(lease.granted) / float64(lease.frames)
	}
	l["control.reassigned"] = float64(reassigned)

	// Drive the last traced round's units with a span around every layer
	// call; it must explore exactly what the campaign explored.
	workers := w.workers
	if w.agents > 0 {
		workers = w.agents
	}
	d := &driver{dep: lastIn.dep, tr: tr, cc: cc, props: checker.DefaultProperties(lastIn.dep.topo)}
	dr, err := d.drive(ctx, lastIn.live, units, workers)
	res.check(err == nil, "traced driver: %v", err)
	checkPrint(res, "traced driver", dr.print, lastIn.want.ref)
	res.check(dr.inputs == last.InputsExplored, "traced driver explored %d inputs, the campaign %d", dr.inputs, last.InputsExplored)
	res.check(dr.solverQueries == queries, "traced driver made %d solver queries, the campaign %d", dr.solverQueries, queries)
	fmt.Fprintf(out, "  traced driver: %d units, %d inputs, %d solver queries, %d detections (sha256 %s)\n",
		len(units), dr.inputs, dr.solverQueries, countLines(dr.print), shortHash(dr.print))

	spanTimings(l, tr)
	l["cluster.cold_build.count"] = float64(dr.coldBuilds)
	if dr.inputs > 0 {
		l["netem.events_per_input"] = float64(dr.events) / float64(dr.inputs)
	}
	l["concolic.solver_queries"] = float64(dr.solverQueries)
	if dr.solverQueries > 0 {
		l["concolic.sat_ratio"] = float64(dr.solverSat) / float64(dr.solverQueries)
	}
	if dr.executions > 0 {
		l["concolic.paths_per_execution"] = float64(dr.uniquePaths) / float64(dr.executions)
	}
	l["checker.violations_per_check"] = cc.perCheck()
	fmt.Fprintf(out, "  tracing overhead: %.1f%% (%.2f untraced vs %.2f traced inputs/s over %d+%d interleaved rounds)\n",
		l["trace.overhead_pct"], l["trace.untraced_inputs_per_s"], l["trace.traced_inputs_per_s"], len(untraced), len(traced))
	return finishTrace(o, tr, l, res, out)
}

// maxReplays bounds the cold-restore re-verifications of the soak's traced
// driver; findings are sampled evenly across the report.
const maxReplays = 48

// traceSoak is the traced run of the soak workload.
func traceSoak(ctx context.Context, o runOptions, w soakWorkload, insts []*instance, res *result, out io.Writer) error {
	tr := newTracer()
	l := layerReport{}

	untracedRound := func(in *instance) (roundStats, error) {
		st, _, err := w.soakRound(ctx, in, &meter{}, res, soakHooks{})
		if err == nil {
			in.checkRound(res, "soak", st.print)
		}
		return st, err
	}

	cc := &checkCounter{}
	var (
		lastIn      *instance
		rt          *live.Runtime
		epochBytes  []float64
		deltaBytes  []float64
		replays     int
		stepsBefore int
		stepsAfter  int
		saved       []float64
		findings    int
		reverified  int
	)
	tracedRound := func(in *instance) (roundStats, error) {
		props := checker.DefaultProperties(in.dep.topo)
		// Campaign events arrive on the campaigns' unit goroutines.
		var (
			mu                     sync.Mutex
			campaignID, minimizeID int
			unitStart              = map[int]time.Time{}
		)
		closeMinimize := func() {
			mu.Lock()
			defer mu.Unlock()
			if minimizeID != 0 {
				tr.close(minimizeID)
				minimizeID = 0
			}
		}
		hooks := soakHooks{
			onEpoch: func(s live.EpochSummary) {
				closeMinimize()
				taken := time.Unix(0, s.UnixNano)
				tr.record("cluster.cut", 0, 0, taken.Add(-s.Process-s.Pause), taken.Add(-s.Process))
				tr.record("checkpoint.ring_push", 0, 0, taken.Add(-s.Process), taken)
				epochBytes = append(epochBytes, float64(s.Bytes))
				deltaBytes = append(deltaBytes, float64(s.DeltaBytes))
			},
			options: func(opts *live.Options) {
				opts.Properties = cc.wrap(props, tr, 0, 0)
				opts.OnCampaignEvent = func(epoch int, scenario string, ev dice.Event) {
					if ev.Kind == dice.EventCampaignStart {
						closeMinimize()
					}
					mu.Lock()
					defer mu.Unlock()
					switch ev.Kind {
					case dice.EventCampaignStart:
						campaignID = tr.open("live.campaign", 0, 0)
					case dice.EventUnitStart:
						unitStart[ev.UnitIndex] = time.Now()
					case dice.EventUnitEnd:
						tr.record("dice.unit", campaignID, 0, unitStart[ev.UnitIndex], time.Now())
					case dice.EventCampaignEnd:
						tr.close(campaignID)
						// Minimization of this campaign's findings runs next,
						// until the next campaign or the end of the epoch.
						minimizeID = tr.open("live.minimize", 0, 0)
					}
				}
			},
		}
		st, r, err := w.soakRound(ctx, in, &meter{}, res, hooks)
		if err != nil {
			return st, err
		}
		closeMinimize()
		in.checkRound(res, "traced soak", st.print)
		rt, lastIn = r, in
		stats := r.Stats()
		replays += stats.MinimizeReplays
		stepsBefore += stats.TraceStepsBefore
		stepsAfter += stats.TraceStepsAfter
		saved = append(saved, stats.DedupeSavedFraction())
		findings += stats.Findings
		reverified += stats.FindingsReverified
		return st, nil
	}

	untraced, traced, gs, err := interleave(o, insts, untracedRound, tracedRound)
	if err != nil {
		return err
	}
	goLayers(l, gs, inputsOf(untraced))
	overhead(l, untraced, traced)
	l["checkpoint.epoch_bytes"] = mean(epochBytes)
	l["checkpoint.delta_bytes"] = mean(deltaBytes)
	l["live.minimize.replays"] = float64(replays) / float64(len(traced))
	if stepsBefore > 0 {
		l["live.minimize.shrink_ratio"] = float64(stepsAfter) / float64(stepsBefore)
	}
	l["live.dedupe.saved_fraction"] = median(saved)
	if findings > 0 {
		l["live.reverified_ratio"] = float64(reverified) / float64(findings)
	}
	// The soak's pooled resets happen inside its campaigns, where the
	// benchmark has no seam: their figure is the pool's own mean.
	pool := rt.PoolStats()
	if pool.Resets > 0 {
		l["cluster.reset.ms"] = float64(pool.ResetTime) / float64(pool.Resets) / float64(time.Millisecond)
		l["cluster.reset.count"] = float64(pool.Resets)
	}
	l["cluster.cold_build.count"] = float64(pool.ColdBuilds)

	// Driver: re-verify a sample of the last soak's findings on cold
	// restores of their epochs, exactly as the minimizer replays them.
	props := checker.DefaultProperties(lastIn.dep.topo)
	all := rt.Report().Findings()
	stride := (len(all) + maxReplays - 1) / maxReplays
	events, replayed := 0, 0
	for i := 0; i < len(all); i += max(stride, 1) {
		f := all[i]
		ok, n, err := replay(rt, lastIn.dep, f, tr, cc, props, i+1)
		res.check(err == nil && ok, "cold-restore replay of %s in epoch %d did not reproduce it (%v)", f.Violation.Key(), f.Epoch, err)
		events += n
		replayed++
	}
	if replayed > 0 {
		l["netem.events_per_input"] = float64(events) / float64(replayed)
	}
	l["checker.violations_per_check"] = cc.perCheck()
	spanTimings(l, tr)
	l["cluster.cold_restore.count"] = float64(replays) / float64(len(traced))
	fmt.Fprintf(out, "  traced driver: %d of %d findings re-verified on cold restores\n", replayed, len(all))
	fmt.Fprintf(out, "  tracing overhead: %.1f%% (%.2f untraced vs %.2f traced inputs/s over %d+%d interleaved soaks)\n",
		l["trace.overhead_pct"], l["trace.untraced_inputs_per_s"], l["trace.traced_inputs_per_s"], len(untraced), len(traced))
	return finishTrace(o, tr, l, res, out)
}

// replay rebuilds a finding's epoch from its snapshot, replays the
// finding's minimized trace and checks that the violation reproduces.
func replay(rt *live.Runtime, dep deployment, f *live.Finding, tr *tracer, cc *checkCounter, props []checker.Property, input int) (bool, int, error) {
	ep := rt.Ring().Get(f.Epoch)
	if ep == nil {
		return false, 0, fmt.Errorf("epoch %d evicted from the ring", f.Epoch)
	}
	id := tr.open("cluster.cold_restore", 0, input)
	shadow, err := cluster.FromSnapshot(dep.topo, ep.Store.Snapshot(), dep.copts)
	tr.close(id)
	if err != nil {
		return false, 0, err
	}
	id = tr.open("netem.execute", 0, input)
	before := shadow.Net.Stats().EventsProcessed
	for _, s := range f.Trace {
		shadow.InjectRaw(s.From, s.To, s.Wire)
		shadow.Net.RunQuiescent(shadowMaxEvents)
	}
	shadow.Net.RunQuiescent(shadowMaxEvents)
	events := shadow.Net.Stats().EventsProcessed - before
	tr.close(id)
	id = tr.open("checker.check", 0, input)
	report := checker.CheckAll(shadow, cc.wrap(props, tr, id, input))
	tr.close(id)
	for _, v := range report.Violations() {
		if v.Key() == f.Violation.Key() {
			return true, events, nil
		}
	}
	return false, events, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
