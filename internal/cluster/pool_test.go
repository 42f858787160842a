package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// clusterCanonical returns a deterministic byte form of the cluster's full
// state: every router's checkpoint plus the transport's in-flight messages.
// encoding/json sorts map keys and checkpoint route lists are already in
// canonical order, so byte equality here means state equality.
func clusterCanonical(t testing.TB, c *Cluster) string {
	t.Helper()
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatalf("marshal cluster snapshot: %v", err)
	}
	return string(data)
}

// exploredInput builds the i-th synthetic UPDATE a worker would subject a
// clone to.
func exploredInput(i int, peerAS bgp.ASN) *bgp.Update {
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{peerAS, bgp.ASN(64900 + i)}, NextHop: uint32(100 + i)}
	return &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix(fmt.Sprintf("88.%d.0.0/16", i+1))}}
}

// TestPooledResetEquivalentToColdRebuild is the golden clone-lifecycle test:
// after N explored inputs have been driven through pooled clones, a freshly
// leased (reset) clone must be byte-identical — checkpoints, RIBs and netem
// in-flight state — to a cold FromSnapshot rebuild, and must keep evolving
// identically when driven further. Both the consistent snapshot and the
// DropChannelState ablation are covered.
func TestPooledResetEquivalentToColdRebuild(t *testing.T) {
	for _, drop := range []bool{false, true} {
		name := "consistent"
		if drop {
			name = "drop-channel-state"
		}
		t.Run(name, func(t *testing.T) {
			topo := topology.Demo27()
			opts := Options{Seed: 3, GaoRexford: true}
			live := MustBuild(topo, opts)
			// Stop mid-convergence so the consistent cut has channel state.
			live.Net.Start()
			live.Run(60 * time.Millisecond)
			snap := live.Snapshot()
			if !drop && len(snap.InFlight) == 0 {
				t.Log("no in-flight messages at the cut; channel-state replay not exercised")
			}
			if drop {
				snap = snap.DropChannelState()
			}

			store, err := checkpoint.NewStore(snap)
			if err != nil {
				t.Fatalf("NewStore: %v", err)
			}
			pool := NewClonePool(topo, store, opts)

			explorer := "R1"
			peer := topo.NeighborsOf(explorer)[0]
			peerAS := topo.Node(peer).AS

			// Drive N explored inputs through pooled clones, dirtying and
			// recycling them as campaign workers do.
			const n = 6
			for i := 0; i < n; i++ {
				clone, err := pool.Lease()
				if err != nil {
					t.Fatalf("Lease %d: %v", i, err)
				}
				clone.InjectUpdate(peer, explorer, exploredInput(i, peerAS))
				clone.Net.RunQuiescent(0)
				pool.Release(clone)
			}
			stats := pool.Stats()
			if stats.ColdBuilds != 1 || stats.Resets != n-1 || stats.Leases != n {
				t.Errorf("pool stats = %+v, want 1 cold build and %d resets over %d leases", stats, n-1, n)
			}

			// The (n+1)-th lease is a reset of a thoroughly dirtied clone; a
			// cold rebuild is the reference.
			pooled, err := pool.Lease()
			if err != nil {
				t.Fatalf("final lease: %v", err)
			}
			cold, err := FromSnapshot(topo, snap, opts)
			if err != nil {
				t.Fatalf("FromSnapshot: %v", err)
			}
			if got, want := clusterCanonical(t, pooled), clusterCanonical(t, cold); got != want {
				t.Fatalf("pooled-reset clone differs from cold rebuild before execution")
			}
			if !reflect.DeepEqual(pooled.Net.InFlight(), cold.Net.InFlight()) {
				t.Fatalf("pooled-reset in-flight state differs from cold rebuild")
			}

			// And the equivalence must hold under execution: driving both with
			// the same input must land them in the same state (this exercises
			// the reseeded jitter/loss randomness).
			in := exploredInput(99, peerAS)
			pooled.InjectUpdate(peer, explorer, in)
			cold.InjectUpdate(peer, explorer, in)
			pooled.Net.RunQuiescent(0)
			cold.Net.RunQuiescent(0)
			if got, want := clusterCanonical(t, pooled), clusterCanonical(t, cold); got != want {
				t.Fatalf("pooled-reset clone diverged from cold rebuild after execution")
			}
			if pooled.Net.Stats() != cold.Net.Stats() {
				t.Errorf("transport stats diverged: pooled %+v, cold %+v", pooled.Net.Stats(), cold.Net.Stats())
			}
		})
	}
}

// TestPooledResetClearsControlOnUntouchedRouters: a reset skips the rewind
// of a router no input reached, but must still drop the exploration and the
// fault hook armed on it. For every backend, both are armed on a router the
// input never reaches; after the clone is released and leased again, an
// UPDATE to that router must fire neither, and the clone must evolve exactly
// as a cold rebuild does.
func TestPooledResetClearsControlOnUntouchedRouters(t *testing.T) {
	for _, impl := range []string{"bird", "frr", "obgpd"} {
		t.Run(impl, func(t *testing.T) {
			topo := topology.Line(4).SetImpl(impl)
			opts := Options{Seed: 1}
			live := MustBuild(topo, opts)
			live.Converge()
			snap := live.Snapshot()
			store, err := checkpoint.NewStore(snap)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewClonePool(topo, store, opts)

			clone, err := pool.Lease()
			if err != nil {
				t.Fatal(err)
			}
			idle := clone.Router("R4")
			m := concolic.NewMachine(&concolic.Input{Regions: map[string][]byte{}}, concolic.MachineOptions{})
			idle.ExploreNextUpdate(m, "R3")
			fired := 0
			idle.SetUpdateHook(func(node.HookContext, string, *bgp.Update) error {
				fired++
				return errors.New("stale hook fired")
			})
			clone.InjectUpdate("R2", "R1", exploredInput(0, topo.Node("R2").AS))
			clone.Net.RunQuiescent(0)
			pool.Release(clone)

			again, err := pool.Lease()
			if err != nil {
				t.Fatal(err)
			}
			if again != clone {
				t.Fatal("pool did not recycle the clone")
			}
			cold, err := FromSnapshot(topo, snap, opts)
			if err != nil {
				t.Fatal(err)
			}
			in := exploredInput(1, topo.Node("R3").AS)
			for _, c := range []*Cluster{again, cold} {
				c.InjectUpdate("R3", "R4", in)
				c.Net.RunQuiescent(0)
			}
			if fired != 0 {
				t.Errorf("hook armed before the reset fired %d times after it", fired)
			}
			if n := len(m.Path()); n != 0 {
				t.Errorf("exploration armed before the reset recorded %d branches after it", n)
			}
			if got, want := clusterCanonical(t, again), clusterCanonical(t, cold); got != want {
				t.Errorf("pooled clone diverged from cold rebuild after the input")
			}
		})
	}
}

// TestFromStoreEquivalentToFromSnapshot verifies the fast store-backed build
// path against the legacy record-parsing path.
func TestFromStoreEquivalentToFromSnapshot(t *testing.T) {
	topo := topology.Line(4)
	opts := Options{Seed: 1}
	live := MustBuild(topo, opts)
	live.Converge()
	snap := live.Snapshot()
	store, err := checkpoint.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FromStore(topo, store, opts)
	if err != nil {
		t.Fatalf("FromStore: %v", err)
	}
	cold, err := FromSnapshot(topo, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clusterCanonical(t, fast), clusterCanonical(t, cold); got != want {
		t.Errorf("FromStore clone differs from FromSnapshot clone")
	}
}

// TestClonePoolGrowsToDemand verifies that concurrent leases build extra
// clones instead of blocking, and that released clones are recycled.
func TestClonePoolGrowsToDemand(t *testing.T) {
	topo := topology.Line(3)
	opts := Options{Seed: 1}
	live := MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewClonePool(topo, store, opts)
	a, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Lease() // a still outstanding: must cold-build a second clone
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("pool leased the same clone twice")
	}
	pool.Release(a)
	pool.Release(b)
	if pool.Size() != 2 {
		t.Errorf("pool size = %d, want 2", pool.Size())
	}
	if s := pool.Stats(); s.ColdBuilds != 2 || s.Resets != 0 {
		t.Errorf("stats = %+v, want 2 cold builds", s)
	}
	c, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if c != a && c != b {
		t.Errorf("lease after release did not recycle a pooled clone")
	}
	if s := pool.Stats(); s.Resets != 1 {
		t.Errorf("stats = %+v, want 1 reset", s)
	}
	if pool.Outstanding() != 1 {
		t.Errorf("outstanding = %d with one clone leased", pool.Outstanding())
	}
	pool.Release(c)
	if pool.Outstanding() != 0 {
		t.Errorf("outstanding = %d after full release", pool.Outstanding())
	}
}

// TestClonePoolDiscardsOnResetFailure fault-injects a broken pooled clone —
// one holding a router the snapshot store has never heard of, so its
// in-place reset must fail — and asserts the pool discards it and serves the
// lease from a fresh cold build instead of failing the caller, with the
// books kept straight.
func TestClonePoolDiscardsOnResetFailure(t *testing.T) {
	topo := topology.Line(3)
	opts := Options{Seed: 1}
	live := MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewClonePool(topo, store, opts)

	a, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the clone: ResetToStore iterates the clone's routers and the
	// store has no image for this name.
	rogue := MustBuild(topology.Line(2), Options{Seed: 1})
	a.Routers["bogus"] = rogue.Router("R1")
	pool.Release(a)

	b, err := pool.Lease()
	if err != nil {
		t.Fatalf("lease after corrupt release must fall through to a cold build: %v", err)
	}
	if b == a {
		t.Fatalf("pool re-leased the corrupted clone")
	}
	s := pool.Stats()
	if s.Discards != 1 {
		t.Errorf("discards = %d, want 1 (stats %+v)", s.Discards, s)
	}
	if s.ColdBuilds != 2 || s.Resets != 0 {
		t.Errorf("fallback lease accounting wrong: %+v", s)
	}
	pool.Release(b)
	if pool.Outstanding() != 0 {
		t.Errorf("outstanding = %d, want 0 (stats %+v)", pool.Outstanding(), pool.Stats())
	}
}
