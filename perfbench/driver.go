package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/fuzz"
)

// shadowMaxEvents is the campaign default bound on each clone run.
const shadowMaxEvents = 20000

// driveResult is what the traced driver explored: enough to prove it drove
// exactly the campaign's inputs.
type driveResult struct {
	print         string
	inputs        int
	executions    int
	solverQueries int
	solverSat     int
	uniquePaths   int
	events        int
	coldBuilds    int
}

// driver re-runs a campaign's planned units outside dice.Campaign, which
// offers no seam around solving and execution. It mirrors the campaign's
// concolic unit loop — the same seed corpus, explorer options and
// lease → inject → run → check execution — and records a span around every
// call into a layer.
type driver struct {
	dep   deployment
	tr    *tracer
	cc    *checkCounter
	props []checker.Property

	inputSeq atomic.Int64
	seen     sync.Map // *cluster.Cluster → true once leased
}

// drive cuts the deployment, builds a clone pool over the cut and explores
// every unit with the given number of workers.
func (d *driver) drive(ctx context.Context, live *cluster.Cluster, units []dice.Unit, workers int) (driveResult, error) {
	id := d.tr.open("cluster.cut", 0, 0)
	snap := live.Snapshot()
	d.tr.close(id)
	id = d.tr.open("checkpoint.store_build", 0, 0)
	store, err := checkpoint.NewStore(snap)
	d.tr.close(id)
	if err != nil {
		return driveResult{}, err
	}
	pool := cluster.NewClonePool(d.dep.topo, store, d.dep.copts)

	var (
		mu   sync.Mutex
		out  driveResult
		keys []string
		errs []error
		wg   sync.WaitGroup
	)
	next := make(chan dice.Unit)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				r, unitKeys, err := d.unit(ctx, pool, u)
				mu.Lock()
				out.inputs += r.inputs
				out.executions += r.executions
				out.solverQueries += r.solverQueries
				out.solverSat += r.solverSat
				out.uniquePaths += r.uniquePaths
				out.events += r.events
				keys = append(keys, unitKeys...)
				if err != nil {
					errs = append(errs, fmt.Errorf("unit %s: %w", u, err))
				}
				mu.Unlock()
			}
		}()
	}
	for _, u := range units {
		next <- u
	}
	close(next)
	wg.Wait()
	stats := pool.Stats()
	if stats.Leases != stats.Releases {
		errs = append(errs, fmt.Errorf("driver clone pool leaked: %d leases, %d releases", stats.Leases, stats.Releases))
	}
	out.coldBuilds = stats.ColdBuilds
	out.print = fingerprint(keys)
	return out, errors.Join(errs...)
}

// seedInputs builds a unit's seed corpus exactly as the campaign does:
// grammar-fuzzed UPDATEs over the topology's prefix and AS pools, plus one
// observed re-announcement of a prefix the peer originates.
func (d *driver) seedInputs(u dice.Unit) []*concolic.Input {
	var pools fuzz.Options
	pools.Seed = u.Seed
	for _, n := range d.dep.topo.Nodes {
		pools.Prefixes = append(pools.Prefixes, n.Prefixes...)
		pools.ASNs = append(pools.ASNs, n.AS)
		pools.NextHops = append(pools.NextHops, uint32(n.RouterID))
	}
	seeds := fuzz.New(pools).Corpus(u.FuzzSeeds)
	if peer := d.dep.topo.Node(u.FromPeer); peer != nil && len(peer.Prefixes) > 0 {
		attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{peer.AS}, NextHop: uint32(peer.RouterID)}
		observed := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{peer.Prefixes[0]}}
		seeds = append(seeds, concolic.NewInput("update", observed.EncodeBody()))
	}
	return seeds
}

// unit explores one unit. Each explorer step gets a concolic.step span (the
// explorer's predicate runs right before every step), and its execute
// callback a concolic.execute child holding the lease, netem and checker
// spans; solving is the step minus its execute callback.
func (d *driver) unit(ctx context.Context, pool *cluster.ClonePool, u dice.Unit) (driveResult, []string, error) {
	unitID := d.tr.open("driver.unit", 0, 0)
	defer d.tr.close(unitID)

	id := d.tr.open("fuzz.corpus", unitID, 0)
	seeds := d.seedInputs(u)
	d.tr.close(id)

	var (
		r      driveResult
		keys   []string
		stepID int
	)
	seen := make(map[string]bool)
	execute := func(in *concolic.Input, m *concolic.Machine) error {
		input := int(d.inputSeq.Add(1))
		execID := d.tr.open("concolic.execute", stepID, input)
		defer d.tr.close(execID)
		violations, events, err := d.execute(pool, u, in, m, execID, input)
		if err != nil {
			return err
		}
		r.inputs++
		r.events += events
		newFinding := false
		for _, v := range violations {
			if !seen[v.Key()] {
				seen[v.Key()] = true
				keys = append(keys, v.Key())
				newFinding = true
			}
		}
		if newFinding {
			// The campaign reports a new finding to the explorer as a
			// failing execution; mirror it so the search is identical.
			return fmt.Errorf("%d property violations", len(violations))
		}
		return nil
	}
	explorer := concolic.NewExplorer(execute, concolic.ExplorerOptions{MaxExecutions: u.MaxInputs, Seed: u.Seed})
	for _, s := range seeds {
		explorer.AddSeed(s)
	}
	_, err := explorer.RunWhile(func() bool {
		if stepID != 0 {
			d.tr.close(stepID)
		}
		stepID = d.tr.open("concolic.step", unitID, 0)
		return ctx.Err() == nil
	})
	if stepID != 0 {
		d.tr.close(stepID)
	}
	if err != nil {
		return r, keys, err
	}
	st := explorer.Stats()
	r.executions = st.Executions
	r.solverQueries = st.SolverQueries
	r.solverSat = st.SolverSat
	r.uniquePaths = st.UniquePaths
	return r, keys, nil
}

// execute runs one input on a leased clone: arm the explorer, inject the
// input, run the clone to quiescence and check every property.
func (d *driver) execute(pool *cluster.ClonePool, u dice.Unit, in *concolic.Input, m *concolic.Machine, parent, input int) ([]checker.Violation, int, error) {
	start := time.Now()
	shadow, err := pool.Lease()
	if err != nil {
		return nil, 0, err
	}
	defer pool.Release(shadow)
	name := "cluster.reset"
	if _, reused := d.seen.LoadOrStore(shadow, true); !reused {
		name = "cluster.cold_build"
	}
	d.tr.record(name, parent, input, start, time.Now())

	id := d.tr.open("netem.execute", parent, input)
	shadow.Router(u.Explorer).ExploreNextUpdate(m, u.FromPeer)
	before := shadow.Net.Stats().EventsProcessed
	shadow.InjectRaw(u.FromPeer, u.Explorer, bgp.FrameUpdate(in.Region("update")))
	shadow.Net.RunQuiescent(shadowMaxEvents)
	events := shadow.Net.Stats().EventsProcessed - before
	d.tr.close(id)
	if err := shadow.Unhealthy(); err != nil {
		return nil, events, err
	}

	id = d.tr.open("checker.check", parent, input)
	report := checker.CheckAll(shadow, d.cc.wrap(d.props, d.tr, id, input))
	d.tr.close(id)
	return report.Violations(), events, nil
}
