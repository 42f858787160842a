package obgpd_test

import (
	"encoding/json"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/obgpd"
	"github.com/dice-project/dice/internal/topology"
)

// obgpdLine builds a Line(n) topology running the obgpd backend everywhere.
func obgpdLine(n int) *topology.Topology {
	return topology.Line(n).SetImpl("obgpd")
}

func TestOBGPDClusterConverges(t *testing.T) {
	topo := obgpdLine(4)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1})
	if events := c.Converge(); events == 0 {
		t.Fatal("no events processed")
	}
	for _, name := range c.RouterNames() {
		r := c.Router(name)
		if r.Implementation() != "obgpd" {
			t.Fatalf("router %s runs %q, want obgpd", name, r.Implementation())
		}
		for _, tn := range topo.Nodes {
			if r.LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s is missing a route to %s", name, tn.Prefixes[0])
			}
		}
		if v := r.CheckInvariants(); len(v) != 0 {
			t.Errorf("%s invariant violations: %v", name, v)
		}
		// The process split saw traffic: session-up dumps and updates in,
		// advertisements out, decisions run.
		or := r.(*obgpd.Router)
		if e := or.Engine(); e.ImsgsSEToRDE == 0 || e.ImsgsRDEToSE == 0 || e.RDEDecisions == 0 {
			t.Errorf("%s engine counters empty: %+v", name, e)
		}
	}
}

// TestThreeBackendsInteroperate proves the wire compatibility the
// differential oracle rests on: a line mixing all three backends still
// converges to full reachability with clean invariants.
func TestThreeBackendsInteroperate(t *testing.T) {
	topo := topology.Line(4)
	topo.SetImpl("frr", "R2").SetImpl("obgpd", "R3")
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1, GaoRexford: true})
	c.Converge()
	for _, name := range c.RouterNames() {
		r := c.Router(name)
		for _, tn := range topo.Nodes {
			if r.LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s (%s) is missing a route to %s", name, r.Implementation(), tn.Prefixes[0])
			}
		}
		if v := r.CheckInvariants(); len(v) != 0 {
			t.Errorf("%s invariant violations: %v", name, v)
		}
	}
}

// TestOBGPDDecisionPrefersOldest pins the backend's deliberate divergence:
// with candidates tied through step 6, obgpd keeps the first-installed
// (oldest) path where bird would take the lower router ID and frr the
// lower peer name.
func TestOBGPDDecisionPrefersOldest(t *testing.T) {
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
	r, err := obgpd.New(&node.Config{Name: "X", AS: 65042, RouterID: 42,
		Neighbors: []node.NeighborConfig{{Name: "R5", AS: 65005}, {Name: "R10", AS: 65002}}})
	if err != nil {
		t.Fatal(err)
	}
	// "R10" sorts before "R5" AND has the lower router ID: both other
	// policies would switch to it. obgpd keeps the incumbent — it arrived
	// first.
	viaR5, viaR10 := mk("R5", 5), mk("R10", 2)
	r.LocRIB().Update(nil, viaR5)
	change := r.LocRIB().Update(nil, viaR10)
	if change.Changed {
		t.Fatalf("obgpd replaced the older path with %s", change.New.Peer)
	}
	if best := r.LocRIB().Best(viaR5.Prefix); best == nil || best.Peer != "R5" {
		t.Fatalf("obgpd best = %v, want the oldest path via R5", best)
	}
	// Same candidates under the other two policies select R10.
	cands := r.LocRIB().Candidates(viaR5.Prefix)
	for _, pol := range []rib.DecisionPolicy{rib.DecisionRouterIDFirst, rib.DecisionPeerAddressFirst} {
		if got := rib.SelectBestWith(nil, cands, pol); got.Peer != "R10" {
			t.Fatalf("%v selection = %s, want R10", pol, got.Peer)
		}
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

// TestOBGPDCheckpointCrossProcessRestore proves the dialect is a working
// serialization: a converged obgpd cluster's snapshot survives encoding
// (dropping the in-process configs), and the decoded checkpoints restore
// through ParseConfig into a byte-identical cluster.
func TestOBGPDCheckpointCrossProcessRestore(t *testing.T) {
	topo := obgpdLine(3)
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
	if impl := decoded.Nodes["R1"].Implementation(); impl != "obgpd" {
		t.Fatalf("decoded checkpoint implementation = %q", impl)
	}
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
	fromDialect.Converge()
	for _, name := range fromDialect.RouterNames() {
		for _, tn := range topo.Nodes {
			if fromDialect.Router(name).LocRIB().Best(tn.Prefixes[0]) == nil {
				t.Errorf("%s lost route to %s after dialect restore", name, tn.Prefixes[0])
			}
		}
	}
}

// TestOBGPDCanonicalCodecRoundTrip holds the backend to the canonical-codec
// contract: EncodeCanonical is deterministic and DecodeCanonical restores a
// checkpoint that re-encodes byte-identically and restores a working router
// with the engine counters intact.
func TestOBGPDCanonicalCodecRoundTrip(t *testing.T) {
	topo := obgpdLine(3)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 5, GaoRexford: true})
	c.Converge()
	be, err := node.BackendFor("obgpd")
	if err != nil {
		t.Fatal(err)
	}
	cp := c.Router("R2").TakeCheckpoint()
	payload, err := be.EncodeCanonical(cp)
	if err != nil {
		t.Fatalf("EncodeCanonical: %v", err)
	}
	again, err := be.EncodeCanonical(cp)
	if err != nil || string(payload) != string(again) {
		t.Fatalf("EncodeCanonical not deterministic (err %v)", err)
	}
	decoded, err := be.DecodeCanonical(payload)
	if err != nil {
		t.Fatalf("DecodeCanonical: %v", err)
	}
	re, err := be.EncodeCanonical(decoded)
	if err != nil || string(re) != string(payload) {
		t.Fatalf("decoded checkpoint re-encodes differently (err %v)", err)
	}
	restored, err := node.RestoreRouter(decoded)
	if err != nil {
		t.Fatalf("RestoreRouter: %v", err)
	}
	or, lr := restored.(*obgpd.Router), c.Router("R2").(*obgpd.Router)
	if or.Engine() != lr.Engine() {
		t.Fatalf("engine counters lost: %+v vs %+v", or.Engine(), lr.Engine())
	}
	if or.Stats() != lr.Stats() {
		t.Fatalf("stats lost: %+v vs %+v", or.Stats(), lr.Stats())
	}
	// Malformed payloads error, never panic.
	for _, bad := range [][]byte{nil, {0x01}, payload[:len(payload)/2], append(append([]byte(nil), payload...), 0xFF)} {
		if _, err := be.DecodeCanonical(bad); err == nil {
			t.Errorf("DecodeCanonical accepted malformed payload of %d bytes", len(bad))
		}
	}
}

// TestOBGPDResetEquivalentToColdRebuild is the obgpd instance of the golden
// clone-lifecycle property: an in-place ResetTo of a dirtied clone must be
// byte-identical to a cold rebuild, including under further execution —
// which also pins that Loc-RIB age stamps rewind and replay identically.
func TestOBGPDResetEquivalentToColdRebuild(t *testing.T) {
	topo := obgpdLine(3)
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
		t.Fatalf("obgpd pooled reset differs from cold rebuild")
	}
	in := &bgp.Update{Attrs: attrs.Clone(), NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.1.0.0/16")}}
	pooled.InjectUpdate("R2", "R1", in)
	cold.InjectUpdate("R2", "R1", in)
	pooled.Net.RunQuiescent(0)
	cold.Net.RunQuiescent(0)
	if got, want := canonical(t, pooled), canonical(t, cold); got != want {
		t.Fatalf("obgpd pooled reset diverged from cold rebuild under execution")
	}
}

// TestOBGPDCleanResetSkipsRewind pins the clean-reset fast path: a router
// restored from the store and not touched since resets to the same image and
// state without allocating and stays byte-identical. An UPDATE delivered
// through HandleMessage dirties it, and the next reset rewinds it to the
// baseline.
func TestOBGPDCleanResetSkipsRewind(t *testing.T) {
	topo := obgpdLine(3)
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

// TestOBGPDRejectsForeignImageAndState pins the backend boundary: obgpd
// routers refuse to reset onto bird-decoded snapshot halves, and the obgpd
// backend hooks refuse foreign checkpoints.
func TestOBGPDRejectsForeignImageAndState(t *testing.T) {
	obgpdTopo := obgpdLine(2)
	birdTopo := topology.Line(2)
	opts := cluster.Options{Seed: 1}
	oc := cluster.MustBuild(obgpdTopo, opts)
	bc := cluster.MustBuild(birdTopo, opts)
	oc.Converge()
	bc.Converge()
	birdStore, err := checkpoint.NewStore(bc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.Router("R1").ResetTo(birdStore.Image("R1"), birdStore.State("R1")); err == nil {
		t.Fatal("obgpd router accepted a bird image")
	}
	be, _ := node.BackendFor("obgpd")
	if _, err := be.ImageOf(bc.Router("R1").TakeCheckpoint()); err == nil {
		t.Fatal("obgpd backend accepted a bird checkpoint")
	}
	if _, err := be.DecodeState(bc.Router("R1").TakeCheckpoint()); err == nil {
		t.Fatal("obgpd backend decoded a bird checkpoint")
	}
}
