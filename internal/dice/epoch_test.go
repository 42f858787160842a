package dice

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// TestCampaignFromSnapshotStore pins the campaign-from-epoch entry point:
// a campaign over a pre-taken store (and a nil live cluster) explores the
// same state and finds the same detections as one that snapshots the live
// cluster itself, in both pooled and cold clone modes.
func TestCampaignFromSnapshotStore(t *testing.T) {
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
	live := cluster.MustBuild(topo, opts)
	live.Converge()

	unit := Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 6, FuzzSeeds: 2, Seed: 1}
	run := func(liveArg *cluster.Cluster, copts ...CampaignOption) *CampaignResult {
		t.Helper()
		all := append([]CampaignOption{WithUnits(unit), WithSeed(1), WithWorkers(1), WithClusterOptions(opts)}, copts...)
		res, err := NewCampaign(liveArg, topo, all...).Run(context.Background())
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		return res
	}

	baseline := run(live)

	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	fromStore := run(nil, WithSnapshotStore(store))
	fromStoreCold := run(nil, WithSnapshotStore(store), WithPooledClones(false))

	fp := func(r *CampaignResult) string {
		out := ""
		for _, d := range r.Detections {
			out += d.Violation.Key() + ";"
		}
		return out
	}
	if fp(baseline) == "" {
		t.Fatalf("baseline campaign found nothing")
	}
	if fp(fromStore) != fp(baseline) {
		t.Fatalf("store campaign detections differ:\nlive:  %s\nstore: %s", fp(baseline), fp(fromStore))
	}
	if fp(fromStoreCold) != fp(baseline) {
		t.Fatalf("cold store campaign detections differ:\nlive: %s\ncold: %s", fp(baseline), fp(fromStoreCold))
	}
	if fromStore.SnapshotBytes <= 0 || fromStore.FullStateBytes <= 0 {
		t.Errorf("store campaign lost snapshot accounting: %+v", fromStore)
	}
}

// TestCampaignsShareClonePool pins the shared-pool path the live runtime
// uses for back-to-back scenario campaigns over one epoch: the second
// campaign leases the first one's released clones (no further cold builds),
// finds the same detections, and its CloneStats reports only its own share
// of the pool's activity.
func TestCampaignsShareClonePool(t *testing.T) {
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(
		faults.MisOrigination{Router: "R3", Prefix: victim})}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, opts)

	run := func() *CampaignResult {
		t.Helper()
		res, err := NewCampaign(nil, topo,
			WithUnits(Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 4, FuzzSeeds: 2, Seed: 1}),
			WithSeed(1), WithWorkers(1), WithClusterOptions(opts),
			WithSnapshotStore(store), WithClonePool(pool)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if len(first.Detections) == 0 {
		t.Fatalf("first campaign found nothing")
	}
	if detectionFingerprintTest(first) != detectionFingerprintTest(second) {
		t.Fatalf("shared-pool campaigns diverged")
	}
	if second.CloneStats.ColdBuilds != 0 {
		t.Errorf("second campaign cold-built %d clones; pool sharing not amortizing", second.CloneStats.ColdBuilds)
	}
	if second.CloneStats.Leases != second.InputsExplored {
		t.Errorf("second campaign's delta stats report %d leases for %d inputs (shared-pool totals leaked in)",
			second.CloneStats.Leases, second.InputsExplored)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("shared pool leaked %d clones", pool.Outstanding())
	}
}

func detectionFingerprintTest(r *CampaignResult) string {
	out := ""
	for _, d := range r.Detections {
		out += d.Violation.Key() + ";"
	}
	return out
}

func TestCampaignWithoutDeploymentOrStoreFails(t *testing.T) {
	topo := topology.Line(2)
	_, err := NewCampaign(nil, topo, WithUnits(Unit{Explorer: "R1", MaxInputs: 1})).Run(context.Background())
	if err != ErrNoDeployment {
		t.Fatalf("err = %v, want ErrNoDeployment", err)
	}
}

// TestCampaignClonePrelude verifies the prelude hook runs once per explored
// input, before the input, and that its injections shape what the campaign
// detects: a prelude-injected hijack is found at the very first input even
// though the deployment is healthy.
func TestCampaignClonePrelude(t *testing.T) {
	topo := topology.Line(3)
	opts := cluster.Options{Seed: 1}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	if v := checker.CheckAll(live, checker.DefaultProperties(topo)).Violations(); len(v) != 0 {
		t.Fatalf("deployment should be healthy: %v", v)
	}

	victim := topo.Nodes[2].Prefixes[0] // R3's prefix, hijacked by R1 below
	var preludes atomic.Int64
	campaign := NewCampaign(live, topo,
		WithUnits(Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 4, FuzzSeeds: 2, Seed: 1}),
		WithSeed(1),
		WithWorkers(1),
		WithClusterOptions(opts),
		WithClonePrelude(func(shadow *cluster.Cluster) {
			preludes.Add(1)
			attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{topo.Nodes[0].AS}, NextHop: 1}
			shadow.InjectUpdate("R1", "R2", &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{victim}})
		}))
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := preludes.Load(); got != int64(res.InputsExplored) {
		t.Fatalf("prelude ran %d times for %d inputs", got, res.InputsExplored)
	}
	d := res.FirstDetection(checker.ClassOperatorMistake)
	if d == nil {
		t.Fatalf("prelude hijack not detected; detections: %v", res.Detections)
	}
	if d.InputIndex != 1 {
		t.Errorf("prelude violation first seen at input %d, want 1", d.InputIndex)
	}
}

// TestFullStateBytesMatchesEncodedCheckpoints pins the full-state baseline a
// campaign reports to what it stands for: the canonical encoding of every
// node's whole checkpoint, summed. Both cut paths — a campaign that
// snapshots the live cluster and one over a pre-taken store — must report
// exactly that sum, on a bird deployment, the 100-router Gao-Rexford one and
// a mixed bird+frr one.
func TestFullStateBytesMatchesEncodedCheckpoints(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Demo27(),
		topology.GaoRexford(3, 25, 72, 1),
		topology.Demo27Hetero(),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			opts := cluster.Options{Seed: 1, GaoRexford: true}
			live := cluster.MustBuild(topo, opts)
			live.Converge()
			want := 0
			for _, name := range live.RouterNames() {
				data, err := checkpoint.EncodeNode(live.Router(name).TakeCheckpoint())
				if err != nil {
					t.Fatal(err)
				}
				want += len(data)
			}
			store, err := checkpoint.NewStore(live.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			explorer := topo.Nodes[0].Name
			unit := Unit{Explorer: explorer, FromPeer: topo.NeighborsOf(explorer)[0], MaxInputs: 1, FuzzSeeds: 1, Seed: 1}
			for name, liveArg := range map[string]*cluster.Cluster{"live-cut": live, "store": nil} {
				copts := []CampaignOption{WithUnits(unit), WithSeed(1), WithWorkers(1), WithClusterOptions(opts)}
				if liveArg == nil {
					copts = append(copts, WithSnapshotStore(store))
				}
				res, err := NewCampaign(liveArg, topo, copts...).Run(context.Background())
				if err != nil {
					t.Fatalf("%s campaign: %v", name, err)
				}
				if res.FullStateBytes != want {
					t.Errorf("%s campaign: FullStateBytes = %d, want %d (sum of encoded checkpoints)", name, res.FullStateBytes, want)
				}
			}
		})
	}
}
