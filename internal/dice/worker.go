package dice

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/fuzz"
)

// pool bounds the number of clone executions in flight across the whole
// campaign. Units run concurrently, but every clone-execute-check acquires a
// slot first, so WithWorkers(n) means at most n shadow clusters are being
// restored and driven at any moment.
type pool struct {
	sem chan struct{}
}

func newPool(workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	return &pool{sem: make(chan struct{}, workers)}
}

// acquire blocks until a worker slot is free or the context is cancelled.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *pool) release() { <-p.sem }

// cloneOutcome is what one clone execution produced.
type cloneOutcome struct {
	violations []checker.Violation
	disclosed  int
	elapsed    time.Duration
	executed   bool
}

// leaseClone obtains a shadow cluster in snapshot state: from the clone pool
// (which rewinds a returned clone in place, or cold-builds from the decoded
// store when the pool is empty), or — with pooling disabled — via a cold
// FromSnapshot rebuild, timed into the campaign's clone stats. The returned
// release func must be called when the caller is done with the clone.
//
//dice:lease
func (c *Campaign) leaseClone() (*cluster.Cluster, func(), error) {
	if c.clones != nil {
		shadow, err := c.clones.Lease()
		if err != nil {
			return nil, nil, err
		}
		return shadow, func() { c.clones.Release(shadow) }, nil
	}
	start := time.Now()
	shadow, err := cluster.FromSnapshot(c.topo, c.snap, c.cfg.clusterOptions)
	elapsed := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	c.coldMu.Lock()
	c.coldStats.Leases++
	c.coldStats.ColdBuilds++
	c.coldStats.ColdBuildTime += elapsed
	c.coldMu.Unlock()
	// Cold clones are not pooled: release closes them, killing the
	// subprocesses of proc:* nodes, and is still accounted so
	// Leases == Releases holds for both lifecycles.
	return shadow, func() {
		shadow.Close()
		c.coldMu.Lock()
		c.coldStats.Releases++
		c.coldMu.Unlock()
	}, nil
}

// runClone leases a shadow cluster in snapshot state, subjects the unit's
// explorer to one input, runs the clone to quiescence and checks the
// properties. It is the hot path the worker pool parallelizes: every call is
// fully isolated (own clone, own machine), so clone executions are
// embarrassingly parallel.
func (c *Campaign) runClone(ctx context.Context, u Unit, in *concolic.Input, m *concolic.Machine) (cloneOutcome, error) {
	if err := c.pool.acquire(ctx); err != nil {
		return cloneOutcome{}, err
	}
	defer c.pool.release()
	// The wait for a worker slot can outlive the campaign; don't pay for a
	// lease (or charge the pool's stats) for an input that will never run.
	if err := ctx.Err(); err != nil {
		return cloneOutcome{}, err
	}
	shadow, release, err := c.leaseClone()
	if err != nil {
		return cloneOutcome{}, fmt.Errorf("dice: clone snapshot: %w", err)
	}
	// Every path out of this function — execution failure, check failure,
	// panic unwinding — must hand the clone back, or pooled clones leak and
	// the pool's Outstanding count drifts. The deferred call is the single
	// release point; the fault-injecting tests exercise it.
	defer release()
	if c.testCloneFault != nil {
		if err := c.testCloneFault(); err != nil {
			return cloneOutcome{}, fmt.Errorf("dice: clone execute: %w", err)
		}
	}
	faults.InstallCodeFaults(shadow.Routers, c.cfg.codeFaults...)
	if c.cfg.prelude != nil {
		// Scenario priming: deterministic churn injected before the explored
		// input, so every clone of this campaign starts from the same primed
		// state (the live runtime records the same injections as the
		// detection's replayable trace). The churn must fully settle before
		// the machine is armed — an armed router substitutes the machine's
		// input region for the next UPDATE from the explored peer, which
		// would swallow a still-undelivered prelude message.
		c.cfg.prelude(shadow)
		shadow.Net.RunQuiescent(c.cfg.shadowMaxEvents)
	}
	shadow.Router(u.Explorer).ExploreNextUpdate(m, u.FromPeer)
	shadow.InjectRaw(u.FromPeer, u.Explorer, wireUpdate(in.Region("update")))
	shadow.Net.RunQuiescent(c.cfg.shadowMaxEvents)

	// An out-of-process node whose subprocess died during the execution has
	// been silently dropping traffic since the crash; its state is not the
	// state this input produces. Surface a unit error (and let the deferred
	// release discard the dead clone) instead of checking fabricated results.
	if err := shadow.Unhealthy(); err != nil {
		return cloneOutcome{}, fmt.Errorf("dice: clone execute: %w", err)
	}

	var violations []checker.Violation
	disclosed := 0
	if c.fed != nil {
		violations, disclosed = c.checkCloneFederated(shadow, u)
	} else {
		report := checker.CheckAll(shadow, c.props)
		violations, disclosed = report.Violations(), report.DisclosedBytes()
	}
	return cloneOutcome{
		violations: violations,
		disclosed:  disclosed,
		elapsed:    time.Since(c.em.start),
		executed:   true,
	}, nil
}

// seedInputs builds the unit's seed corpus: grammar-fuzzed UPDATEs drawn from
// the topology's prefix and AS pools, plus one "observed" message
// re-announcing a prefix the peer legitimately originates.
func (c *Campaign) seedInputs(u Unit) (*fuzz.Generator, []*concolic.Input) {
	var pools fuzz.Options
	pools.Seed = u.Seed
	for _, n := range c.topo.Nodes {
		pools.Prefixes = append(pools.Prefixes, n.Prefixes...)
		pools.ASNs = append(pools.ASNs, n.AS)
		pools.NextHops = append(pools.NextHops, uint32(n.RouterID))
	}
	gen := fuzz.New(pools)
	seeds := gen.Corpus(u.FuzzSeeds)
	if peerNode := c.topo.Node(u.FromPeer); peerNode != nil && len(peerNode.Prefixes) > 0 {
		attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{peerNode.AS}, NextHop: uint32(peerNode.RouterID)}
		observed := &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{peerNode.Prefixes[0]}}
		seeds = append(seeds, concolic.NewInput("update", observed.EncodeBody()))
	}
	return gen, seeds
}

// runUnit executes one unit of the campaign plan over the shared snapshot and
// returns its per-unit result. Concolic units run their generational search
// sequentially (each input's constraints seed the next), with the clone
// executions gated by the worker pool; fuzz-only units fan all inputs out in
// parallel, since their corpus is fixed up front.
func (c *Campaign) runUnit(ctx context.Context, idx int, u Unit) (*Result, error) {
	unitStart := time.Now()
	res := &Result{
		Explorer:         u.Explorer,
		FromPeer:         u.FromPeer,
		Domain:           u.Domain,
		SnapshotDuration: c.snapStats.SnapshotDuration,
		SnapshotBytes:    c.snapStats.SnapshotBytes,
		SnapshotNodes:    c.snapStats.SnapshotNodes,
		InFlightMessages: c.snapStats.InFlightMessages,
		FullStateBytes:   c.snapStats.FullStateBytes,
	}
	gen, seeds := c.seedInputs(u)

	var err error
	if c.cfg.useConcolic {
		err = c.runUnitConcolic(ctx, idx, u, seeds, res)
	} else {
		err = c.runUnitFuzz(ctx, idx, u, gen, seeds, res)
	}
	res.Duration = time.Since(unitStart)
	return res, err
}

// runUnitConcolic drives the sequential generational search: execute an
// input, negate its branch constraints, enqueue the solved children.
func (c *Campaign) runUnitConcolic(ctx context.Context, idx int, u Unit, seeds []*concolic.Input, res *Result) error {
	seen := make(map[string]bool)
	executed := 0

	execute := func(in *concolic.Input, m *concolic.Machine) error {
		out, err := c.runClone(ctx, u, in, m)
		if err != nil {
			if ctx.Err() != nil {
				return nil // cancelled while waiting for a worker slot
			}
			return err
		}
		executed++
		inputIndex := executed
		res.DisclosedBytes += out.disclosed
		newFinding := false
		for _, v := range out.violations {
			if seen[v.Key()] {
				continue
			}
			seen[v.Key()] = true
			newFinding = true
			d := Detection{
				Violation:  v,
				Class:      v.Class,
				InputIndex: inputIndex,
				Input:      in.Clone(),
				Elapsed:    out.elapsed,
			}
			res.Detections = append(res.Detections, d)
			c.emitDetection(u, idx, &d)
		}
		if newFinding {
			return fmt.Errorf("dice: %d property violations", len(out.violations))
		}
		return nil
	}

	explorer := concolic.NewExplorer(execute, concolic.ExplorerOptions{
		MaxExecutions: u.MaxInputs,
		Seed:          u.Seed,
	})
	for _, s := range seeds {
		explorer.AddSeed(s)
	}
	report, err := explorer.RunWhile(func() bool { return ctx.Err() == nil })
	if err != nil {
		return err
	}
	res.ExplorerStats = explorer.Stats()
	// Count the clones actually driven, not explorer steps: a step aborted by
	// cancellation while waiting for a worker slot explored nothing.
	res.InputsExplored = executed
	// Transient clone failures are tolerated — the explorer routes around
	// them and the pool discards the dead clone. But a unit where *every*
	// execution failed (a crashing subprocess backend, a broken store) found
	// nothing and proved nothing; surface its first failure as the unit error
	// instead of reporting a silently vacuous result.
	if executed == 0 && len(report.Errors) > 0 {
		return fmt.Errorf("dice: unit %s from %s explored no inputs: %w", u.Explorer, u.FromPeer, report.Errors[0].Err)
	}
	return nil
}

// runUnitFuzz runs the fuzzing-only ablation: the corpus is fixed up front,
// so every input executes independently on the worker pool. Detections are
// streamed as soon as any worker finds them; the aggregated result is rebuilt
// in input order afterwards, so it is deterministic regardless of the worker
// count (streamed events may attribute a duplicated violation to a different
// input than the aggregate does).
func (c *Campaign) runUnitFuzz(ctx context.Context, idx int, u Unit, gen *fuzz.Generator, seeds []*concolic.Input, res *Result) error {
	for len(seeds) < u.MaxInputs {
		seeds = append(seeds, gen.Corpus(1)...)
	}
	if len(seeds) > u.MaxInputs {
		seeds = seeds[:u.MaxInputs]
	}

	outcomes := make([]cloneOutcome, len(seeds))
	var (
		wg        sync.WaitGroup
		streamMu  sync.Mutex
		streamed  = make(map[string]bool)
		firstErr  error
		firstErrM sync.Once
	)
	for i, s := range seeds {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, s *concolic.Input) {
			defer wg.Done()
			m := concolic.NewMachine(s.Clone(), concolic.MachineOptions{})
			out, err := c.runClone(ctx, u, m.Input(), m)
			if err != nil {
				if ctx.Err() == nil {
					firstErrM.Do(func() { firstErr = err })
				}
				return
			}
			outcomes[i] = out
			streamMu.Lock()
			for _, v := range out.violations {
				if streamed[v.Key()] {
					continue
				}
				streamed[v.Key()] = true
				d := Detection{Violation: v, Class: v.Class, InputIndex: i + 1, Input: s.Clone(), Elapsed: out.elapsed}
				c.emitDetection(u, idx, &d)
			}
			streamMu.Unlock()
		}(i, s)
	}
	wg.Wait()

	seen := make(map[string]bool)
	for i := range outcomes {
		if !outcomes[i].executed {
			continue
		}
		res.InputsExplored++
		res.DisclosedBytes += outcomes[i].disclosed
		for _, v := range outcomes[i].violations {
			if seen[v.Key()] {
				continue
			}
			seen[v.Key()] = true
			res.Detections = append(res.Detections, Detection{
				Violation:  v,
				Class:      v.Class,
				InputIndex: i + 1,
				Input:      seeds[i].Clone(),
				Elapsed:    outcomes[i].elapsed,
			})
		}
	}
	return firstErr
}
