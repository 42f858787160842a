package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/dice"
)

// campaignWorkload is a closed loop of whole campaigns over one deployment:
// each round cuts the deployment, explores every planned unit and merges the
// detections, and the next round starts when the previous one returned.
type campaignWorkload struct {
	gen       func(seed int64) deployment
	instances int // seeded instances a run cycles through
	inputs    int // total input budget per campaign
	fuzzSeeds int
	workers   int
	// agents > 0 runs every round through the control plane and that many
	// in-process agents (one worker each) instead of the local worker pool.
	agents int
}

// options are the campaign options every round of the workload uses.
func (w campaignWorkload) options(in *instance) []dice.CampaignOption {
	return []dice.CampaignOption{
		dice.WithStrategy(dice.AllNodesStrategy{}),
		dice.WithBudget(dice.Budget{TotalInputs: w.inputs}),
		dice.WithFuzzSeeds(w.fuzzSeeds),
		dice.WithSeed(in.seed),
		dice.WithClusterOptions(in.dep.copts),
		dice.WithWorkers(w.workers),
	}
}

// roundStats is what one round contributes to the end-to-end metrics.
type roundStats struct {
	inputs   int
	wall     time.Duration   // the round's share of the timed window
	cpu      time.Duration   // process CPU during the round
	epochs   []time.Duration // cut taken → last finding published (epoch_s)
	pauses   []time.Duration // consistent-cut pauses (checkpoint_pause_ms)
	findings []time.Duration // cut taken → finding published
	wire     int             // bytes shipped between deployment and exploration
	print    string          // detection fingerprint
}

// roundHooks lets the traced run observe a round: onEvent sees every
// campaign event, and extra options are appended after the workload's own.
type roundHooks struct {
	onEvent func(dice.Event)
	extra   []dice.CampaignOption
}

// campaignRound runs one campaign against the instance's deployment and
// checks its operations: unit errors, the clone-pool ledger and, for
// distributed rounds, abandoned shards.
func (w campaignWorkload) campaignRound(ctx context.Context, in *instance, res *result, wire *wireCounter, hooks roundHooks) (roundStats, *dice.CampaignResult, error) {
	var (
		mu       sync.Mutex
		findings []time.Duration
	)
	opts := append(w.options(in), dice.WithOnEvent(func(ev dice.Event) {
		if ev.Kind == dice.EventDetection {
			mu.Lock()
			findings = append(findings, ev.Elapsed)
			mu.Unlock()
		}
		if hooks.onEvent != nil {
			hooks.onEvent(ev)
		}
	}))
	opts = append(opts, hooks.extra...)

	var (
		r      *dice.CampaignResult
		err    error
		agents []*agent.Agent
	)
	if w.agents > 0 {
		r, agents, err = w.distributedRun(ctx, in, opts, wire)
	} else {
		r, err = dice.NewCampaign(in.live, in.dep.topo, opts...).Run(ctx)
	}
	if err != nil {
		res.check(false, "campaign: %v", err)
		return roundStats{}, nil, err
	}
	unitErrs := 0
	for _, e := range r.UnitErrors {
		if e != nil {
			unitErrs++
		}
	}
	res.count(len(r.UnitErrors), unitErrs, "campaign units")

	st := roundStats{
		inputs:   r.InputsExplored,
		epochs:   []time.Duration{r.Duration},
		pauses:   []time.Duration{r.SnapshotDuration},
		findings: findings,
		print:    fingerprint(campaignKeys(r)),
	}
	if w.agents > 0 {
		res.count(r.Remote.Shards, r.Remote.Abandoned, "distributed shards")
		var pool cluster.PoolStats
		for _, ag := range agents {
			pool = pool.Add(ag.PoolStats())
		}
		res.check(pool.Leases == pool.Releases, "agent clone pools leaked: %d leases, %d releases", pool.Leases, pool.Releases)
		st.wire = wire.total()
	} else {
		res.check(r.CloneStats.Leases == r.CloneStats.Releases, "clone pool leaked: %d leases, %d releases", r.CloneStats.Leases, r.CloneStats.Releases)
		// In-process, the state that would cross to a remote executor is the
		// encoded cut, and the results that would come back are the checker
		// disclosures.
		st.wire = r.SnapshotBytes + r.DisclosedBytes
	}
	return st, r, nil
}

// distributedRun runs the campaign through a fresh controller and agents
// that reach it over control.InProcessClient — the same frames and
// endpoints as TCP, without sockets. Agents exit once the campaign is done;
// the round waits for them.
func (w campaignWorkload) distributedRun(ctx context.Context, in *instance, opts []dice.CampaignOption, wire *wireCounter) (*dice.CampaignResult, []*agent.Agent, error) {
	ctrl := control.NewController(control.Config{
		Campaign:      "perfbench",
		MinAgents:     w.agents,
		UnitsPerShard: 1,
		LeaseTTL:      30 * time.Second,
	})
	wire.reset(control.NewHandler(ctrl))
	client := control.InProcessClient(wire)
	agentCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	agents := make([]*agent.Agent, w.agents)
	errs := make([]error, w.agents)
	var wg sync.WaitGroup
	for i := range agents {
		agents[i] = agent.New(agent.Config{
			Name:         fmt.Sprintf("agent-%d", i),
			ControlURL:   "http://control.inproc",
			Client:       client,
			Workers:      1,
			PollInterval: 2 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = agents[i].Run(agentCtx)
		}(i)
	}
	r, err := dice.NewCampaign(in.live, in.dep.topo, append(opts, dice.WithRemoteExecution(ctrl))...).Run(ctx)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err == nil {
		for i, e := range errs {
			if e != nil {
				err = fmt.Errorf("agent-%d: %w", i, e)
				break
			}
		}
	}
	return r, agents, err
}
