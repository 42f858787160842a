package dice

// Benchmarks regenerating the paper's evaluation artifacts. Each benchmark
// corresponds to one experiment from DESIGN.md / EXPERIMENTS.md; run with
//
//	go test -bench=. -benchmem
//
// The benchmarks use the quick experiment configuration so a full sweep stays
// in the seconds-to-minutes range; cmd/dice-bench runs the full-size versions
// and prints the paper-style rows.

import (
	"context"
	"runtime"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/fuzz"
	"github.com/dice-project/dice/internal/topology"
)

// BenchmarkE1Demo27Routers regenerates the Figure 1 demo run: a full DiCE
// exploration round over the 27-router topology with all three fault classes
// planted.
func BenchmarkE1Demo27Routers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunE1(ExperimentConfig{Quick: true, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2SnapshotClone measures the Figure 2 workflow primitives:
// consistent snapshot of the demo deployment and restoration of one shadow
// clone.
func BenchmarkE2SnapshotClone(b *testing.B) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := live.Snapshot()
		if _, err := cluster.FromSnapshot(topo, snap, cluster.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2SnapshotEncode measures serializing the 27-node snapshot (the
// per-node checkpoint sizes reported by E2/E4).
func BenchmarkE2SnapshotEncode(b *testing.B) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	snap := live.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Encode(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3DetectionLatency regenerates the detection-latency table
// (three fault classes on the small topology size).
func BenchmarkE3DetectionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunE3(ExperimentConfig{Quick: true, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4OverheadBaseline measures concrete (DiCE off) per-UPDATE
// processing on a converged two-router deployment.
func BenchmarkE4OverheadBaseline(b *testing.B) {
	benchUpdateHandling(b, false)
}

// BenchmarkE4OverheadInstrumented measures per-UPDATE processing with DiCE's
// symbolic tracing armed for every message.
func BenchmarkE4OverheadInstrumented(b *testing.B) {
	benchUpdateHandling(b, true)
}

func benchUpdateHandling(b *testing.B, instrument bool) {
	topo := topology.Line(2)
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	gen := fuzz.New(fuzz.Options{Seed: 1})
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i] = gen.Body()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		if instrument {
			in := concolic.NewInput("update", body)
			m := concolic.NewMachine(in, concolic.MachineOptions{})
			live.Router("R2").ExploreNextUpdate(m, "R1")
		}
		live.InjectRaw("R1", "R2", buildWire(body))
		live.Converge()
	}
}

// BenchmarkE4CheckpointNode measures one lightweight node checkpoint.
func BenchmarkE4CheckpointNode(b *testing.B) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	r := live.Router("R1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := r.TakeCheckpoint()
		if _, err := checkpoint.EncodeNode(cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ExplorationCombined regenerates the exploration-effectiveness
// comparison (concolic + fuzzing finding the guarded handler bug).
func BenchmarkE5ExplorationCombined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunE5(ExperimentConfig{Quick: true, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ConcolicStep measures a single concolic exploration step over
// the BGP UPDATE parser (path recording plus constraint negation).
func BenchmarkE5ConcolicStep(b *testing.B) {
	u := &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001, 65002}, NextHop: 1},
		NLRI:  []bgp.Prefix{bgp.MustParsePrefix("10.1.0.0/16")},
	}
	u.Attrs.SetMED(100)
	body := u.EncodeBody()
	execute := func(in *concolic.Input, m *concolic.Machine) error {
		_, err := bgp.ParseUpdateSym(m, "update", in.Region("update"))
		return err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := concolic.NewExplorer(execute, concolic.ExplorerOptions{MaxExecutions: 4, Seed: int64(i)})
		e.AddSeed(concolic.NewInput("update", body))
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Fuzzer measures grammar-based UPDATE generation throughput and
// allocation footprint.
func BenchmarkE6Fuzzer(b *testing.B) {
	topo := topology.Demo27()
	var opts fuzz.Options
	opts.Seed = 1
	for _, n := range topo.Nodes {
		opts.Prefixes = append(opts.Prefixes, n.Prefixes...)
		opts.ASNs = append(opts.ASNs, n.AS)
	}
	g := fuzz.New(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Body()) == 0 {
			b.Fatal("empty body")
		}
	}
}

// BenchmarkE7NarrowInterface measures one full property-checking round over
// the 27-router deployment through the narrow information-sharing interface.
func BenchmarkE7NarrowInterface(b *testing.B) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	props := DefaultProperties(topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := CheckDeployment(live, props); len(v) != 0 {
			b.Fatalf("unexpected violations: %v", v)
		}
	}
}

// benchCampaignDemo27 runs a multi-explorer campaign over the 27-router demo
// with a fixed input budget and the given worker-pool size. Comparing the
// workers=1 and workers=NumCPU variants demonstrates the parallel speedup of
// clone execution (the campaign's hot path): the same budget, the same
// detections, divided across the pool.
func benchCampaignDemo27(b *testing.B, workers int) {
	topo := topology.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	copts := cluster.Options{
		Seed:           1,
		ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: "R12", Prefix: victim}),
		MaxEvents:      300000,
	}
	live := cluster.MustBuild(topo, copts)
	live.Converge()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign := NewCampaign(live, topo,
			WithStrategy(AllNodesStrategy{}),
			WithBudget(Budget{TotalInputs: 54}),
			WithFuzzSeeds(2),
			WithSeed(1),
			WithClusterOptions(copts),
			WithWorkers(workers))
		res, err := campaign.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.InputsExplored == 0 || len(res.Detections) == 0 {
			b.Fatalf("campaign found nothing: %d inputs, %d detections", res.InputsExplored, len(res.Detections))
		}
	}
}

// BenchmarkE8CampaignSerial is the 27-unit campaign with serial clone
// execution (the pre-Campaign baseline behaviour).
func BenchmarkE8CampaignSerial(b *testing.B) { benchCampaignDemo27(b, 1) }

// BenchmarkE8CampaignParallel is the same campaign with one worker per CPU;
// on multi-core hardware it should approach a NumCPU-fold speedup since each
// worker restores and drives its own snapshot clone.
func BenchmarkE8CampaignParallel(b *testing.B) { benchCampaignDemo27(b, runtime.NumCPU()) }

// ---------------------------------------------------------------------------
// E9 clone-lifecycle benchmarks: the cost of obtaining one shadow clone of
// the 27-router demo snapshot, via the legacy cold rebuild, a store-backed
// build, and a pooled in-place reset. The pooled reset is the campaign hot
// path; the acceptance bar is ≥3x over the cold rebuild.
// ---------------------------------------------------------------------------

func demo27Snapshot(b *testing.B) (*topology.Topology, *checkpoint.Snapshot) {
	return convergedSnapshot(b, topology.Demo27())
}

func convergedSnapshot(b *testing.B, topo *topology.Topology) (*topology.Topology, *checkpoint.Snapshot) {
	b.Helper()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1, GaoRexford: true})
	live.Converge()
	return topo, live.Snapshot()
}

// BenchmarkE9CloneColdRebuild measures the legacy clone path: every call
// re-validates configs and re-decodes every route record.
func BenchmarkE9CloneColdRebuild(b *testing.B) {
	topo, snap := demo27Snapshot(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.FromSnapshot(topo, snap, cluster.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9CloneStoreBuild measures a cold build from the decoded snapshot
// store (the pool's growth path).
func BenchmarkE9CloneStoreBuild(b *testing.B) {
	topo, snap := demo27Snapshot(b)
	store, err := checkpoint.NewStore(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.FromStore(topo, store, cluster.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ClonePooledReset measures the pooled hot path: lease a clone,
// rewinding it to the snapshot in place. Between lease and release the clone
// runs one explored input, untimed, so every timed reset rewinds the routers
// that input reached, as in a campaign.
func BenchmarkE9ClonePooledReset(b *testing.B) {
	benchPooledReset(b, topology.Demo27())
}

// BenchmarkE9ClonePooledResetGR100 is the pooled reset on the 100-router
// Gao-Rexford topology of the campaign-gr100 workload, where one input
// reaches a small share of the routers.
func BenchmarkE9ClonePooledResetGR100(b *testing.B) {
	benchPooledReset(b, topology.GaoRexford(3, 25, 72, 1))
}

func benchPooledReset(b *testing.B, topo *topology.Topology) {
	_, snap := convergedSnapshot(b, topo)
	store, err := checkpoint.NewStore(snap)
	if err != nil {
		b.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, cluster.Options{Seed: 1, GaoRexford: true})
	warm, err := pool.Lease()
	if err != nil {
		b.Fatal(err)
	}
	exploreOnce(warm)
	pool.Release(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := pool.Lease()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		exploreOnce(c)
		pool.Release(c)
		b.StartTimer()
	}
}

// BenchmarkCheckAllGR100 measures one check of the default properties on a
// pooled clone of the 100-router Gao-Rexford topology after one explored
// input: the per-input checking cost of the campaign-gr100 workload.
func BenchmarkCheckAllGR100(b *testing.B) {
	topo, snap := convergedSnapshot(b, topology.GaoRexford(3, 25, 72, 1))
	store, err := checkpoint.NewStore(snap)
	if err != nil {
		b.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, cluster.Options{Seed: 1, GaoRexford: true})
	c, err := pool.Lease()
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Release(c)
	exploreOnce(c)
	props := checker.DefaultProperties(topo)
	for b.Loop() {
		checker.CheckAll(c, props)
	}
}

// ---------------------------------------------------------------------------
// E12 live-mode benchmarks: the continuous checkpoint→explore→report loop.
// ---------------------------------------------------------------------------

// BenchmarkE12LiveSoak runs the bounded live soak (epoch checkpoints,
// scenario campaigns, dedupe, group-minimized traces) in its quick
// configuration; the full-size run is `dice-bench -exp e12`.
func BenchmarkE12LiveSoak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunE12(ExperimentConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Findings == 0 {
			b.Fatal("soak found nothing")
		}
	}
}

// BenchmarkE12EpochCheckpoint measures one live-mode checkpoint beat: the
// consistent cut plus the ring push (store decode, measure, delta) of the
// 27-router demo — the recurring cost the pause budget governs.
func BenchmarkE12EpochCheckpoint(b *testing.B) {
	topo := topology.Demo27()
	live := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	live.Converge()
	ring := checkpoint.NewRing(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.Push(live.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateCodec measures the raw wire-format cost that everything else
// sits on top of (ancillary micro-benchmark).
func BenchmarkUpdateCodec(b *testing.B) {
	u := &bgp.Update{
		Attrs: &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001, 65002, 65003}, NextHop: 1},
		NLRI:  []bgp.Prefix{bgp.MustParsePrefix("10.1.0.0/16"), bgp.MustParsePrefix("10.2.0.0/16")},
	}
	u.Attrs.SetLocalPref(200)
	u.Attrs.AddCommunity(bgp.NewCommunity(65001, 100))
	wire := bgp.Encode(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
