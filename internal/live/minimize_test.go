package live

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/topology"
)

// TestMain lets this test binary double as the procdriver's child process:
// replays over proc: topologies re-exec the binary, and MaybeRunChild
// diverts those re-executions into the backend server.
func TestMain(m *testing.M) {
	procdriver.MaybeRunChild()
	os.Exit(m.Run())
}

// e12QuickSoak runs the E12 quick soak (dice-bench -exp e12 -quick) on the
// given Demo27 variant: the mis-origination at R12 and the missing import
// filter at R1 planted, churn for the first two of four epochs, every
// scenario every epoch, the governor pinned.
func e12QuickSoak(t testing.TB, topo *topology.Topology, seed int64) *Runtime {
	t.Helper()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: seed,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployed, err := cluster.Build(topo, copts)
	if err != nil {
		t.Fatal(err)
	}
	deployed.Converge()
	const epochs = 4
	churn := DefaultTraffic(3)
	rt, err := NewRuntime(deployed, topo, Options{
		Seed:           seed,
		ClusterOptions: copts,
		Traffic: func(c *cluster.Cluster, rng *rand.Rand, epoch int) {
			if epoch <= epochs/2 {
				churn(c, rng, epoch)
			}
		},
		MaxEpochs:         epochs,
		InputsPerScenario: 6,
		FuzzSeeds:         2,
		Explorers:         []string{"R1"},
		PauseBudget:       time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// findingsDigest hashes what an operator receives for every finding, in
// report order: epoch, scenario, violation key, re-verification verdict and
// the bytes of every trace step.
func findingsDigest(fs []*Finding) string {
	h := sha256.New()
	field := func(b []byte) {
		var n [binary.MaxVarintLen64]byte
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, f := range fs {
		field(binary.AppendUvarint(nil, uint64(f.Epoch)))
		field([]byte(f.Scenario))
		field([]byte(f.Violation.Key()))
		if f.Reverified {
			field([]byte{1})
		} else {
			field([]byte{0})
		}
		field(binary.AppendUvarint(nil, uint64(len(f.Trace))))
		for _, s := range f.Trace {
			field([]byte(s.From))
			field([]byte(s.To))
			field(s.Wire)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestMinimizedFindingsGolden pins every minimized finding of the E12 quick
// soak — homogeneous at seeds 1–3, and the bird+frr mix at seed 1, so both
// backends' ResetTo sit on the minimizer path — to digests recorded when
// every minimizer trial still ran on a cold FromSnapshot rebuild.
func TestMinimizedFindingsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four E12 quick soaks")
	}
	cases := []struct {
		name   string
		topo   func() *topology.Topology
		seed   int64
		digest string
	}{
		{"demo27/seed1", topology.Demo27, 1, "6e8df3b58ded12c9"},
		{"demo27/seed2", topology.Demo27, 2, "98d2c30f3f75a0dd"},
		{"demo27/seed3", topology.Demo27, 3, "41291cc22af282bc"},
		{"demo27hetero/seed1", topology.Demo27Hetero, 1, "537dfbfeb231c30f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := e12QuickSoak(t, tc.topo(), tc.seed)
			fs := rt.Report().Findings()
			got := findingsDigest(fs)
			stats := rt.Stats()
			t.Logf("%d findings, digest %s; %d minimizer trials, %d cold re-verifications, pool %+v",
				len(fs), got, stats.MinimizeReplays, stats.ReverifyReplays, rt.PoolStats())
			if got != tc.digest {
				t.Errorf("findings digest = %s, want %s", got, tc.digest)
			}
			checkColdReplays(t, rt)
		})
	}
}

// checkColdReplays asserts the re-verification contract of a finished soak:
// every finding reverified, each minimized group's trace replayed cold
// exactly once, plus at most one shared cold empty-trace replay per epoch,
// and the minimizer's leases balanced.
func checkColdReplays(t *testing.T, rt *Runtime) {
	t.Helper()
	type groupID struct {
		epoch                            int
		scenario, explorer, peer, domain string
		input                            int
	}
	groups := make(map[groupID]bool)
	steadyEpochs := make(map[int]bool)
	for _, f := range rt.Report().Findings() {
		if !f.Reverified {
			t.Errorf("finding not reverified: %v", f)
			continue
		}
		if len(f.Trace) == 0 {
			steadyEpochs[f.Epoch] = true
		} else {
			groups[groupID{f.Epoch, f.Scenario, f.Explorer, f.FromPeer, f.Domain, f.InputIndex}] = true
		}
	}
	stats := rt.Stats()
	if want := len(groups) + len(steadyEpochs); stats.ReverifyReplays != want {
		t.Errorf("cold replays = %d, want %d (%d groups with a non-empty trace + %d epochs with steady-state findings)",
			stats.ReverifyReplays, want, len(groups), len(steadyEpochs))
	}
	if stats.MinimizeReplays == 0 {
		t.Errorf("no minimizer trials ran")
	}
	pool := rt.PoolStats()
	if pool.Leases != pool.Releases || rt.PoolOutstanding() != 0 {
		t.Errorf("clone pool unbalanced after minimization: %+v, outstanding %d", pool, rt.PoolOutstanding())
	}
}

// TestMinimizerLeasesEpochPool pins where the minimizer's trials run: on
// the epoch's clone pool, as in-place resets of the clones its campaigns
// already built. The same soak with minimization off differs only in those
// leases — no extra cold builds — and both leave the pool balanced.
func TestMinimizerLeasesEpochPool(t *testing.T) {
	soak := func(minimize int) (*Runtime, Stats) {
		deployed, topo, opts := soakFixture(t)
		rt, err := NewRuntime(deployed, topo, Options{
			Seed:              1,
			ClusterOptions:    opts,
			MaxEpochs:         2,
			InputsPerScenario: 4,
			FuzzSeeds:         2,
			Explorers:         []string{"R2"},
			Workers:           1,
			MinimizeReplays:   minimize,
			Traffic:           DefaultTraffic(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		pool := rt.PoolStats()
		if pool.Leases != pool.Releases || rt.PoolOutstanding() != 0 {
			t.Errorf("minimize=%d: clone pool unbalanced: %+v, outstanding %d", minimize, pool, rt.PoolOutstanding())
		}
		return rt, rt.Stats()
	}
	off, offStats := soak(-1)
	on, onStats := soak(0)
	if onStats.Findings == 0 || onStats.Findings != offStats.Findings {
		t.Fatalf("findings: %d with minimization, %d without", onStats.Findings, offStats.Findings)
	}
	before, after := off.PoolStats(), on.PoolStats()
	leases := after.Leases - before.Leases
	if leases <= 0 || leases > onStats.MinimizeReplays {
		t.Errorf("minimizer leased %d clones for %d trials", leases, onStats.MinimizeReplays)
	}
	if resets := after.Resets - before.Resets; resets != leases {
		t.Errorf("minimizer leases: %d, resets: %d; every trial must reuse a pooled clone", leases, resets)
	}
	if after.ColdBuilds != before.ColdBuilds {
		t.Errorf("cold builds %d with minimization, %d without", after.ColdBuilds, before.ColdBuilds)
	}
	checkColdReplays(t, on)
}

// childKiller is a code fault that kills every procdriver subprocess the
// moment its target handles an UPDATE — the crash of an out-of-process
// node in the middle of a replay.
type childKiller struct{ target string }

func (childKiller) Class() checker.FaultClass { return checker.ClassProgrammingError }
func (childKiller) Name() string              { return "kill-child" }
func (childKiller) Description() string       { return "kills the node's subprocess on its first UPDATE" }
func (k childKiller) Target() string          { return k.target }
func (childKiller) Hook() node.UpdateHook {
	return func(node.HookContext, string, *bgp.Update) error {
		procdriver.KillAll()
		return nil
	}
}

// TestColdReverifyReapsProcChildren: a cold re-verification restores the
// whole epoch, one subprocess per proc: node, and must kill those children
// when it is done, so the count falls back to the deployment's own.
func TestColdReverifyReapsProcChildren(t *testing.T) {
	if err := procdriver.SpawnCheck(); err != nil {
		t.Skipf("subprocess spawning unavailable: %v", err)
	}
	t.Cleanup(func() { procdriver.KillAll() })
	topo := topology.Line(3).SetImpl("proc:bird", "R2", "R3")
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
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
	own := procdriver.LiveChildren()
	if len(rt.coldKeys(ep, nil)) == 0 {
		t.Fatal("cold replay found no violation; it did not run")
	}
	if got := procdriver.LiveChildren(); got != own {
		t.Errorf("%d subprocesses alive after a cold re-verification, want the deployment's %d", got, own)
	}
}

// TestReplayOnDeadCloneDoesNotReproduce: a replay whose out-of-process node
// died mid-trace checks state a silently-dropping node made up, so pooled
// and cold replays alike must report "did not reproduce". The finding keeps
// its original trace, unverified, and the dead pooled clone is discarded.
func TestReplayOnDeadCloneDoesNotReproduce(t *testing.T) {
	if err := procdriver.SpawnCheck(); err != nil {
		t.Skipf("subprocess spawning unavailable: %v", err)
	}
	t.Cleanup(func() { procdriver.KillAll() })
	topo := topology.Line(3).SetImpl("proc:bird", "R2")
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
	deployed := cluster.MustBuild(topo, opts)
	deployed.Converge()
	rt, err := NewRuntime(deployed, topo, Options{
		Seed: 1, ClusterOptions: opts, Workers: 1,
		CodeFaults: []faults.CodeFault{childKiller{target: "R2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := rt.Ring().Push(deployed.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// The mis-origination is steady state: the empty trace never reaches
	// R2's hook, so the child survives and the violation shows.
	var key string
	for k := range rt.coldKeys(ep, nil) {
		key = k
		break
	}
	if key == "" {
		t.Fatal("fixture epoch exhibits no violation")
	}

	// One UPDATE to R2 kills its child mid-replay.
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Nodes[0].AS}, NextHop: 1}
	trace := []TraceStep{{From: "R1", To: "R2", Wire: bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{victim}})}}
	if got := rt.coldKeys(ep, trace); got[key] {
		t.Errorf("cold replay on a dead clone reproduced %s", key)
	}
	pool := cluster.NewClonePool(topo, ep.Store, opts)
	er := rt.newEpochReplays(ep, pool)
	if got := er.trial(trace); got[key] {
		t.Errorf("pooled replay on a dead clone reproduced %s", key)
	}
	if s := pool.Stats(); s.Leases != s.Releases || s.Discards != 1 {
		t.Errorf("dead pooled clone not discarded: %+v", s)
	}

	f := &Finding{Violation: checker.Violation{}, Trace: cloneSteps(trace), TraceOriginal: 1}
	for _, v := range checker.CheckAll(deployed, rt.props).Violations() {
		if v.Key() == key {
			f.Violation = v
		}
	}
	er.minimizeGroup([]*Finding{f})
	if f.Reverified || len(f.Trace) != 1 {
		t.Errorf("finding from a dead-clone replay: reverified %v, trace %d steps; want unverified with its original trace", f.Reverified, len(f.Trace))
	}
}

// BenchmarkMinimizeGroup is the minimizer stage on its own: one recorded
// detection group — the longest scenario prelude plus a hijack UPDATE on
// R1's unfiltered session from R4, with every violation the trace exhibits
// as a finding — minimized against a pushed Demo27 epoch. The epoch's clone
// pool is warm, as after its campaigns; each iteration starts a fresh memo
// and includes the cold re-verification.
func BenchmarkMinimizeGroup(b *testing.B) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed: 1,
		ConfigOverride: faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployed := cluster.MustBuild(topo, copts)
	deployed.Converge()
	rt, err := NewRuntime(deployed, topo, Options{Seed: 1, ClusterOptions: copts, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := rt.Ring().Push(deployed.Snapshot())
	if err != nil {
		b.Fatal(err)
	}

	var trace []TraceStep
	for _, sc := range faults.Scenarios(topo, 1) {
		if p := recordPrelude(sc); len(p) > len(trace) {
			trace = p
		}
	}
	r4 := topo.Node("R4")
	hijack := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{r4.AS}, NextHop: uint32(r4.RouterID)}
	trace = append(trace, TraceStep{From: "R4", To: "R1", Wire: bgp.Encode(&bgp.Update{Attrs: hijack, NLRI: []bgp.Prefix{victim}})})
	shadow, err := cluster.FromSnapshot(topo, ep.Store.Snapshot(), copts)
	if err != nil {
		b.Fatal(err)
	}
	replaySteps(shadow, trace, rt.opts.ShadowMaxEvents)
	shadow.Net.RunQuiescent(rt.opts.ShadowMaxEvents)
	violations := checker.CheckAll(shadow, rt.props).Violations()
	if len(violations) == 0 {
		b.Fatal("recorded trace exhibits no violation")
	}

	pool := cluster.NewClonePool(topo, ep.Store, copts)
	warm, err := pool.Lease()
	if err != nil {
		b.Fatal(err)
	}
	pool.Release(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		group := make([]*Finding, len(violations))
		for j, v := range violations {
			group[j] = &Finding{Violation: v, Class: v.Class, Trace: cloneSteps(trace), TraceOriginal: len(trace)}
		}
		rt.newEpochReplays(ep, pool).minimizeGroup(group)
		if !group[0].Reverified {
			b.Fatalf("finding not reverified: %v", group[0])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(trace)), "steps/group")
	b.ReportMetric(float64(len(violations)), "findings/group")
}
