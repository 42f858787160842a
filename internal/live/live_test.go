package live

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// soakFixture deploys a Line(3) with a mis-origination planted at R3 (it
// hijacks R1's prefix) and converges it.
func soakFixture(t *testing.T) (*cluster.Cluster, *topology.Topology, cluster.Options) {
	t.Helper()
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
	c, err := cluster.Build(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Converge()
	return c, topo, opts
}

func TestRuntimeSoakDetectsMisOrigination(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	before := deployed.TotalBestChanges()

	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         2,
		InputsPerScenario: 4,
		FuzzSeeds:         2,
		Explorers:         []string{"R2"},
		Workers:           1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {}, // idle: determinism
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rt.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stats := rt.Stats()
	if stats.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", stats.Epochs)
	}
	if !report.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("mis-origination not detected online; findings: %v", report.Findings())
	}
	if stats.FirstDetectionEpoch != 1 {
		t.Errorf("first detection in epoch %d, want 1 (steady-state violation)", stats.FirstDetectionEpoch)
	}
	for _, f := range report.Findings() {
		if f.Epoch < 1 || f.Epoch > 2 {
			t.Errorf("finding with bad epoch provenance: %v", f)
		}
		if f.Scenario == "" || f.Explorer == "" || f.InputIndex < 1 {
			t.Errorf("finding with incomplete provenance: %v", f)
		}
		if !f.Reverified {
			t.Errorf("finding not re-verified against a cold clone: %v", f)
		}
		if len(f.Trace) > f.TraceOriginal {
			t.Errorf("minimized trace longer than original: %v", f)
		}
	}
	// The mis-origination is a steady-state violation: its minimal trace is
	// empty (the cold clone already violates).
	if f := report.Find(firstKey(report)); f != nil && f.Class == checker.ClassOperatorMistake && len(f.Trace) != 0 {
		for _, g := range report.Findings() {
			if g.Class == checker.ClassOperatorMistake && len(g.Trace) == 0 {
				goto ok
			}
		}
		t.Errorf("no operator-mistake finding minimized to the empty trace")
	ok:
	}
	// Exploration never perturbs the deployment.
	if deployed.TotalBestChanges() != before {
		t.Errorf("live cluster mutated by the soak")
	}
	// Ring retained both epochs, tagged in order.
	if got := rt.Ring().Seqs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ring seqs = %v", got)
	}
	// Run is single-use.
	if _, err := rt.Run(context.Background()); err != ErrRuntimeReused {
		t.Errorf("second Run err = %v, want ErrRuntimeReused", err)
	}
}

func firstKey(r *Report) string {
	fs := r.Findings()
	if len(fs) == 0 {
		return ""
	}
	return fs[0].Violation.Key()
}

// TestRuntimeDedupeOnIdleEpochs pins the cross-epoch dedupe claim: epochs
// whose state fingerprint is unchanged skip their scenario campaigns
// entirely, charging the saved inputs and paths to the dedupe counters.
func TestRuntimeDedupeOnIdleEpochs(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		InputsPerScenario: 3,
		FuzzSeeds:         2,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,                                         // irrelevant here
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {}, // idle: state never changes
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	n := rt.Scheduler().Len()
	if stats.Campaigns != n {
		t.Errorf("campaigns = %d, want %d (only epoch 1 explores)", stats.Campaigns, n)
	}
	if stats.CampaignsDeduped != 2*n {
		t.Errorf("deduped = %d, want %d (epochs 2 and 3 fully skipped)", stats.CampaignsDeduped, 2*n)
	}
	if stats.InputsSaved <= 0 || stats.InputsSaved != 2*stats.InputsExplored {
		t.Errorf("inputs saved = %d, explored = %d; want saved == 2x explored", stats.InputsSaved, stats.InputsExplored)
	}
	if stats.DedupeSavedFraction() < 0.6 {
		t.Errorf("dedupe fraction = %.2f, want >= 0.66", stats.DedupeSavedFraction())
	}
	if rt.Cache().Len() != n {
		t.Errorf("cache entries = %d, want %d", rt.Cache().Len(), n)
	}
}

// TestRuntimeChurnChangesFingerprints is the dedupe counter-case: with real
// traffic between epochs the fingerprints differ and every epoch explores.
func TestRuntimeChurnChangesFingerprints(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         2,
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           DefaultTraffic(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	eps := rt.Ring().Seqs()
	if len(eps) != 2 {
		t.Fatalf("ring seqs = %v", eps)
	}
	a, b := rt.Ring().Get(eps[0]), rt.Ring().Get(eps[1])
	if a.Fingerprint == b.Fingerprint {
		t.Fatalf("churned epochs share a fingerprint")
	}
	if b.NodesChanged == 0 {
		t.Errorf("churned epoch reports no changed nodes")
	}
	if rt.Stats().CampaignsDeduped != 0 {
		t.Errorf("churned epochs deduped: %d", rt.Stats().CampaignsDeduped)
	}
}

// minimize shrinks a single finding's trace the way explore does: its trials
// lease a clone pool over the epoch's store, and the result is re-verified
// on a cold rebuild.
func (rt *Runtime) minimize(ep *checkpoint.Epoch, f *Finding) {
	rt.newEpochReplays(ep, cluster.NewClonePool(rt.topo, ep.Store, rt.opts.ClusterOptions)).minimizeGroup([]*Finding{f})
}

// reproduces reports whether replaying the trace on a cold clone of the
// epoch reproduces the violation.
func (rt *Runtime) reproduces(ep *checkpoint.Epoch, steps []TraceStep, violationKey string) bool {
	return rt.coldKeys(ep, steps)[violationKey]
}

// TestMinimizerShrinksTrace drives the greedy minimizer directly: a trace
// padded with removable churn around the one hijack injection that matters
// must shrink, on pooled trials, to exactly that injection, re-verified on a
// cold clone.
func TestMinimizerShrinksTrace(t *testing.T) {
	topo := topology.Line(3)
	opts := cluster.Options{Seed: 1}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()

	rt, err := NewRuntime(deployed, topo, Options{Seed: 1, ClusterOptions: opts, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := rt.Ring().Push(deployed.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	victim := topo.Nodes[2].Prefixes[0] // R3's prefix, hijacked by R1
	ownPfx := topo.Nodes[0].Prefixes[0]
	legit := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Nodes[0].AS}, NextHop: 1}
	wire := func(u *bgp.Update) []byte { return bgp.Encode(u) }
	trace := []TraceStep{
		// Removable noise: R1 re-announces and withdraws its own prefix.
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{ownPfx}})},
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Withdrawn: []bgp.Prefix{ownPfx}})},
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{ownPfx}})},
		// The step that matters: R1 hijacks R3's prefix.
		{From: "R1", To: "R2", Wire: wire(&bgp.Update{Attrs: legit, NLRI: []bgp.Prefix{victim}})},
	}

	// Recover the violation the full trace produces.
	var violation checker.Violation
	found := false
	shadow, err := cluster.FromSnapshot(topo, ep.Store.Snapshot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	replaySteps(shadow, trace, 20000)
	for _, v := range checker.CheckAll(shadow, rt.props).Violations() {
		if v.Class == checker.ClassOperatorMistake {
			violation, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("fixture trace produces no operator-mistake violation")
	}

	f := &Finding{Violation: violation, Class: violation.Class, Trace: cloneSteps(trace), TraceOriginal: len(trace)}
	rt.minimize(ep, f)
	if !f.Reverified {
		t.Fatalf("minimized trace not re-verified")
	}
	if len(f.Trace) != 1 {
		t.Fatalf("minimized to %d steps, want 1: %v", len(f.Trace), f.Trace)
	}
	if !bytes.Equal(f.Trace[0].Wire, trace[3].Wire) {
		t.Fatalf("minimizer kept the wrong step: %v", f.Trace[0])
	}
	if !rt.reproduces(ep, f.Trace, violation.Key()) {
		t.Fatalf("minimized trace does not reproduce from a cold clone")
	}
}

func TestGovernorStretchesCadenceOnPauseOverrun(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		PauseBudget:       time.Nanosecond, // every real pause overruns
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if stats.PauseBudgetExceeded != 3 {
		t.Errorf("budget exceeded = %d, want 3", stats.PauseBudgetExceeded)
	}
	if stats.CheckpointStride != 8 {
		t.Errorf("final stride = %d, want 8 (doubled each epoch, capped)", stats.CheckpointStride)
	}
	if stats.StrideStretches != 3 {
		t.Errorf("stride stretches = %d, want 3 (one per doubling: 1→2→4→8)", stats.StrideStretches)
	}
	if stats.StrideRelaxes != 0 {
		t.Errorf("stride relaxes = %d, want 0", stats.StrideRelaxes)
	}
	if stats.CheckpointPauseMax <= 0 || stats.PauseMean() <= 0 {
		t.Errorf("pause accounting empty: %+v", stats)
	}
}

// TestGovernorOverrunsAtStrideCap pins the promoted governor counters apart:
// once the stride caps at 8, further overruns keep incrementing
// PauseBudgetExceeded but produce no stretch — StrideStretches counts actual
// cadence doublings, exactly one per stretch, never one per overrun.
func TestGovernorOverrunsAtStrideCap(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         5,
		PauseBudget:       time.Nanosecond, // every real pause overruns
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if stats.PauseBudgetExceeded != 5 {
		t.Errorf("budget exceeded = %d, want 5 (every epoch overran)", stats.PauseBudgetExceeded)
	}
	if stats.StrideStretches != 3 {
		t.Errorf("stride stretches = %d, want 3 (1→2→4→8, then capped)", stats.StrideStretches)
	}
	if stats.CheckpointStride != 8 {
		t.Errorf("final stride = %d, want 8", stats.CheckpointStride)
	}
}

func TestDeliverSupersedesStaleEpoch(t *testing.T) {
	rt := &Runtime{}
	deployedTopo := topology.Line(2)
	c := cluster.MustBuild(deployedTopo, cluster.Options{Seed: 1})
	c.Converge()
	ring := checkpoint.NewRing(2)
	ep1, err := ring.Push(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := ring.Push(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	mailbox := make(chan epochWork, 1)
	rt.deliver(mailbox, epochWork{ep: ep1})
	rt.deliver(mailbox, epochWork{ep: ep2}) // supersedes ep1
	got := <-mailbox
	if got.ep != ep2 {
		t.Fatalf("mailbox holds epoch %d, want %d", got.ep.Seq, ep2.Seq)
	}
	if rt.stats.EpochsSuperseded != 1 {
		t.Fatalf("superseded = %d, want 1", rt.stats.EpochsSuperseded)
	}
}

func TestRuntimeOverlapSoak(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         3,
		Overlap:           true,
		InputsPerScenario: 3,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 2,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           DefaultTraffic(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined exploration still finds the planted fault; every epoch was
	// either explored or superseded by a fresher one.
	if !report.Detected(checker.ClassOperatorMistake) {
		t.Fatalf("overlap soak missed the planted fault")
	}
	stats := rt.Stats()
	if stats.Epochs != 3 {
		t.Errorf("epochs = %d", stats.Epochs)
	}
	explored := stats.Campaigns + stats.CampaignsDeduped
	if explored == 0 {
		t.Errorf("no epochs explored at all")
	}
}

func TestRuntimeCancellation(t *testing.T) {
	deployed, topo, opts := soakFixture(t)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:              1,
		ClusterOptions:    opts,
		MaxEpochs:         0, // unbounded: only the context ends the soak
		InputsPerScenario: 2,
		FuzzSeeds:         2,
		ScenariosPerEpoch: 1,
		Explorers:         []string{"R2"},
		Workers:           1,
		MinimizeReplays:   -1,
		Traffic:           func(*cluster.Cluster, *rand.Rand, int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = rt.Run(ctx)
		close(done)
	}()
	for rt.Stats().Epochs == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("soak did not stop on cancellation")
	}
	if runErr != context.Canceled {
		t.Errorf("Run err = %v, want context.Canceled", runErr)
	}
}
