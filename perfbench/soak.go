package main

import (
	"context"
	mrand "math/rand"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/live"
)

// soakWorkload is a closed loop of bounded live soaks (E12): each soak runs
// live.Runtime beside a freshly deployed cluster, with churn for the first
// half of its epochs and an idle deployment afterwards, so the idle epochs
// hit the cross-epoch dedupe cache.
type soakWorkload struct {
	gen               func(seed int64) deployment
	instances         int // seeded instances a run cycles through
	epochs            int
	inputsPerScenario int
	fuzzSeeds         int
}

// soakHooks lets the traced run observe a soak: onEpoch sees every epoch
// summary, and options may adjust the runtime's options.
type soakHooks struct {
	onEpoch func(live.EpochSummary)
	options func(*live.Options)
}

// options are the live.Options of one soak. The pause budget is pinned as in
// E12, so the checkpoint cadence does not depend on the machine and every
// soak explores the same epoch states.
func (w soakWorkload) options(in *instance) live.Options {
	churnEpochs := w.epochs / 2
	churn := live.DefaultTraffic(3)
	return live.Options{
		Seed:           in.seed,
		ClusterOptions: in.dep.copts,
		Traffic: func(c *cluster.Cluster, rng *mrand.Rand, epoch int) {
			if epoch <= churnEpochs {
				churn(c, rng, epoch)
			}
		},
		MaxEpochs:         w.epochs,
		ScenariosPerEpoch: 0, // every registered scenario, every epoch
		InputsPerScenario: w.inputsPerScenario,
		FuzzSeeds:         w.fuzzSeeds,
		Explorers:         []string{"R1"},
		PauseBudget:       time.Hour,
	}
}

// soakRound deploys a fresh cluster (untimed), then runs one soak inside the
// meter and checks it: every scenario campaign ran, every finding was
// re-verified, and the clone pools balanced.
func (w soakWorkload) soakRound(ctx context.Context, in *instance, m *meter, res *result, hooks soakHooks) (roundStats, *live.Runtime, error) {
	deployed, err := in.dep.deploy()
	if err != nil {
		res.check(false, "deploy: %v", err)
		return roundStats{}, nil, err
	}
	opts := w.options(in)
	var (
		rt       *live.Runtime
		mu       sync.Mutex
		st       roundStats
		findings []time.Duration
	)
	opts.OnFinding = func(f *live.Finding) {
		// Latency runs from the epoch's checkpoint entering the ring to the
		// minimized, re-verified finding being published.
		if ep := rt.Ring().Get(f.Epoch); ep != nil {
			mu.Lock()
			findings = append(findings, time.Since(ep.Taken))
			mu.Unlock()
		}
	}
	var epochTimes []time.Duration
	opts.OnEpoch = func(s live.EpochSummary) {
		// An idle epoch whose every scenario hit the dedupe cache publishes
		// nothing; epoch_s covers the epochs that explored.
		if s.Campaigns > 0 {
			epochTimes = append(epochTimes, time.Since(time.Unix(0, s.UnixNano)))
		}
		st.pauses = append(st.pauses, s.Pause)
		if hooks.onEpoch != nil {
			hooks.onEpoch(s)
		}
	}
	if hooks.options != nil {
		hooks.options(&opts)
	}
	rt, err = live.NewRuntime(deployed, in.dep.topo, opts)
	if err != nil {
		res.check(false, "live runtime: %v", err)
		return roundStats{}, nil, err
	}
	var report *live.Report
	wall, cpu := m.measure(func() int {
		report, err = rt.Run(ctx)
		return rt.Stats().InputsExplored
	})
	st.wall, st.cpu = wall, cpu
	if err != nil {
		res.check(false, "soak: %v", err)
		return roundStats{}, nil, err
	}
	stats := rt.Stats()
	scenarios := len(faults.Scenarios(in.dep.topo, in.seed))
	attempted := stats.Epochs*scenarios - stats.CampaignsDeduped
	res.count(attempted, attempted-stats.Campaigns, "scenario campaigns")
	res.count(stats.Findings, stats.Findings-stats.FindingsReverified, "finding re-verifications")
	pool := rt.PoolStats()
	res.check(pool.Leases == pool.Releases && rt.PoolOutstanding() == 0,
		"soak clone pool leaked: %d leases, %d releases", pool.Leases, pool.Releases)

	keys := make([]string, 0, stats.Findings)
	for _, f := range report.Findings() {
		keys = append(keys, f.Violation.Key())
	}
	st.inputs = stats.InputsExplored
	st.findings = findings
	st.print = fingerprint(keys)
	st.wire = stats.DeltaBytesTotal
	st.epochs = epochTimes
	return st, rt, nil
}
