package frr_test

import (
	"encoding/json"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/frr"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// frrLine builds a Line(n) topology running the frr backend on every node.
func frrLine(n int) *topology.Topology {
	return topology.Line(n).SetImpl("frr")
}

func TestFRRClusterConverges(t *testing.T) {
	topo := frrLine(4)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	if events := c.Converge(); events == 0 {
		t.Fatal("no events processed")
	}
	for _, name := range c.RouterNames() {
		r := c.Router(name)
		if r.Implementation() != "frr" {
			t.Fatalf("router %s runs %q, want frr", name, r.Implementation())
		}
		for _, tn := range topo.Nodes {
			if r.LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s is missing a route to %s", name, tn.Prefixes[0])
			}
		}
		if v := r.CheckInvariants(); len(v) != 0 {
			t.Errorf("%s invariant violations: %v", name, v)
		}
	}
}

// TestFRRDecisionPrefersPeerAddress pins the backend's deliberate divergence:
// with candidates tied through step 6, frr selects the lexicographically
// lowest peer name where bird selects the lowest peer router ID.
func TestFRRDecisionPrefersPeerAddress(t *testing.T) {
	mk := func(peerName string, id bgp.RouterID) *rib.Route {
		return &rib.Route{
			Prefix:       bgp.MustParsePrefix("10.99.0.0/16"),
			Attrs:        &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65100, 65101}, NextHop: 1},
			Peer:         peerName,
			PeerAS:       bgp.ASN(65000 + uint32(id)),
			PeerRouterID: id,
			EBGP:         true,
		}
	}
	// "R10" sorts before "R5" lexicographically, but its router ID is higher.
	viaR5, viaR10 := mk("R5", 5), mk("R10", 10)
	cands := []*rib.Route{viaR5, viaR10}

	if got := rib.SelectBestWith(nil, cands, rib.DecisionRouterIDFirst); got != viaR5 {
		t.Fatalf("bird-order selection = %s, want R5 (lowest router ID)", got.Peer)
	}
	if got := rib.SelectBestWith(nil, cands, frr.Decision); got != viaR10 {
		t.Fatalf("frr-order selection = %s, want R10 (lowest peer name)", got.Peer)
	}

	// And the running frr router does install by its own order.
	r, err := frr.New(&node.Config{Name: "X", AS: 65042, RouterID: 42,
		Neighbors: []node.NeighborConfig{{Name: "R5", AS: 65005}, {Name: "R10", AS: 65010}}})
	if err != nil {
		t.Fatal(err)
	}
	r.LocRIB().Update(nil, viaR5)
	change := r.LocRIB().Update(nil, viaR10)
	if !change.Changed || change.New.Peer != "R10" {
		t.Fatalf("frr Loc-RIB selected %s, want R10", change.New.Peer)
	}
}

// canonical returns a deterministic byte form of a cluster's full state.
func canonical(t *testing.T, c *cluster.Cluster) string {
	t.Helper()
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return string(data)
}

// TestFRRCheckpointCrossProcessRestore proves the dialect is a working
// serialization: a converged frr cluster's snapshot survives codec encoding
// (dropping the in-process configs), and the decoded checkpoints restore
// through ParseConfig into a byte-identical cluster.
func TestFRRCheckpointCrossProcessRestore(t *testing.T) {
	topo := frrLine(3)
	opts := cluster.Options{Seed: 1, GaoRexford: true}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	snap := live.Snapshot()

	data, err := checkpoint.Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if impl := decoded.Nodes["R1"].Implementation(); impl != "frr" {
		t.Fatalf("decoded checkpoint implementation = %q", impl)
	}
	// The decoded checkpoints lost their in-process configs, so this restore
	// exercises ParseConfig over the dialect text; restoring the original
	// snapshot reuses the in-process configs. Both must land byte-identical.
	fromDialect, err := cluster.FromSnapshot(topo, decoded, opts)
	if err != nil {
		t.Fatalf("FromSnapshot(decoded): %v", err)
	}
	fromMemory, err := cluster.FromSnapshot(topo, snap, opts)
	if err != nil {
		t.Fatalf("FromSnapshot(original): %v", err)
	}
	if got, want := canonical(t, fromDialect), canonical(t, fromMemory); got != want {
		t.Fatalf("restore through the dialect text differs from in-process restore")
	}
	// And the dialect-restored cluster still routes: full reachability.
	fromDialect.Converge()
	for _, name := range fromDialect.RouterNames() {
		for _, tn := range topo.Nodes {
			if fromDialect.Router(name).LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s lost route to %s after dialect restore", name, tn.Prefixes[0])
			}
		}
	}
}

// TestFRRResetEquivalentToColdRebuild is the frr instance of the golden
// clone-lifecycle property: an in-place ResetTo of a dirtied clone must be
// byte-identical to a cold rebuild, including under further execution.
func TestFRRResetEquivalentToColdRebuild(t *testing.T) {
	topo := frrLine(3)
	opts := cluster.Options{Seed: 3}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	snap := live.Snapshot()
	store, err := checkpoint.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewClonePool(topo, store, opts)

	clone, err := pool.Lease()
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the clone thoroughly.
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65002, 64999}, NextHop: 9}
	clone.InjectUpdate("R2", "R1", &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("88.1.0.0/16")}})
	clone.Net.RunQuiescent(0)
	pool.Release(clone)

	pooled, err := pool.Lease() // reset of the dirtied clone
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cluster.FromSnapshot(topo, snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, pooled), canonical(t, cold); got != want {
		t.Fatalf("frr pooled reset differs from cold rebuild")
	}
	in := &bgp.Update{Attrs: attrs.Clone(), NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.1.0.0/16")}}
	pooled.InjectUpdate("R2", "R1", in)
	cold.InjectUpdate("R2", "R1", in)
	pooled.Net.RunQuiescent(0)
	cold.Net.RunQuiescent(0)
	if got, want := canonical(t, pooled), canonical(t, cold); got != want {
		t.Fatalf("frr pooled reset diverged from cold rebuild under execution")
	}
}

// TestFRRCleanResetSkipsRewind pins the clean-reset fast path: a router
// restored from the store and not touched since resets to the same image and
// state without allocating and stays byte-identical. An UPDATE delivered
// through HandleMessage dirties it, and the next reset rewinds it to the
// baseline.
func TestFRRCleanResetSkipsRewind(t *testing.T) {
	topo := frrLine(3)
	opts := cluster.Options{Seed: 1}
	live := cluster.MustBuild(topo, opts)
	live.Converge()
	store, err := checkpoint.NewStore(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	clone, err := cluster.FromStore(topo, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := clone.Router("R1")
	im, st := store.Image("R1"), store.State("R1")
	encoded := func() string {
		t.Helper()
		data, err := checkpoint.EncodeNode(r.TakeCheckpoint())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	baseline := encoded()

	allocs := testing.AllocsPerRun(100, func() {
		if err := r.ResetTo(im, st); err != nil {
			t.Fatalf("ResetTo: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean ResetTo allocated %.1f times per call, want 0", allocs)
	}
	if encoded() != baseline {
		t.Errorf("clean reset changed the checkpoint")
	}

	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65002, 64999}, NextHop: 9}
	clone.InjectUpdate("R2", "R1", &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("88.1.0.0/16")}})
	clone.Net.RunQuiescent(0)
	if encoded() == baseline {
		t.Fatal("the delivered UPDATE did not change the checkpoint; test is vacuous")
	}
	if err := r.ResetTo(im, st); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if encoded() != baseline {
		t.Errorf("reset after HandleMessage differs from baseline")
	}
}

// TestFRRRejectsForeignImageAndState pins the backend boundary: frr routers
// refuse to reset onto bird-decoded snapshot halves.
func TestFRRRejectsForeignImageAndState(t *testing.T) {
	frrTopo := frrLine(2)
	birdTopo := topology.Line(2)
	opts := cluster.Options{Seed: 1}
	fc := cluster.MustBuild(frrTopo, opts)
	bc := cluster.MustBuild(birdTopo, opts)
	fc.Converge()
	bc.Converge()
	birdStore, err := checkpoint.NewStore(bc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	err = fc.Router("R1").ResetTo(birdStore.Image("R1"), birdStore.State("R1"))
	if err == nil {
		t.Fatal("frr router accepted a bird image")
	}
}
