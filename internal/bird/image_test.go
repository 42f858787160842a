package bird

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// canonical returns a deterministic byte form of a checkpoint (encoding/json
// sorts map keys, and checkpoint route lists are already in canonical order).
func canonical(t testing.TB, cp *Checkpoint) string {
	t.Helper()
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	return string(data)
}

// convergedPair wires two routers over netem, converges them and returns the
// first one (which now has established sessions and learned routes).
func convergedPair(t testing.TB) *Router {
	t.Helper()
	r1, _ := convergedPeers(t)
	return r1
}

// convergedPeers is convergedPair returning both routers, R1 and R2.
func convergedPeers(t testing.TB) (*Router, *Router) {
	t.Helper()
	mkCfg := func(name string, as bgp.ASN, id bgp.RouterID, prefix, peer string, peerAS bgp.ASN) *Config {
		return &Config{
			Name: name, AS: as, RouterID: id,
			Networks: []bgp.Prefix{bgp.MustParsePrefix(prefix)},
			Policies: map[string]*policy.Policy{"ALL": policy.AcceptAll("ALL")},
			Neighbors: []NeighborConfig{
				{Name: peer, AS: peerAS, Import: "ALL", Export: "ALL"},
			},
		}
	}
	net := netem.New(netem.Options{Seed: 1})
	r1 := MustNew(mkCfg("R1", 65001, 1, "10.1.0.0/16", "R2", 65002))
	r2 := MustNew(mkCfg("R2", 65002, 2, "10.2.0.0/16", "R1", 65001))
	net.AddNode(r1)
	net.AddNode(r2)
	net.Connect("R1", "R2", netem.LinkConfig{Delay: time.Millisecond})
	net.RunQuiescent(0)
	if r1.SessionState("R2") != StateEstablished {
		t.Fatal("pair did not converge")
	}
	return r1, r2
}

func TestImageRestoreMatchesColdRestore(t *testing.T) {
	cp := convergedPair(t).Checkpoint()

	cold, err := Restore(cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatalf("ImageOf: %v", err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	fast, err := im.Restore(st)
	if err != nil {
		t.Fatalf("Image.Restore: %v", err)
	}
	if got, want := canonical(t, fast.Checkpoint()), canonical(t, cold.Checkpoint()); got != want {
		t.Errorf("image restore diverged from cold restore:\n got %s\nwant %s", got, want)
	}
}

func TestResetToRewindsDirtyRouter(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonical(t, clone.Checkpoint())

	// Dirty every kind of mutable state: RIBs, counters, events, sessions,
	// crash flags, fault hooks and armed explorations. The writes bypass
	// every handler, so mark the router dirty the way a handler does.
	clone.dirty = true
	leaked := &rib.Route{
		Prefix: bgp.MustParsePrefix("99.9.0.0/16"),
		Attrs:  &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65099}, NextHop: 9},
		Peer:   "R2", PeerAS: 65002, EBGP: true,
	}
	clone.adjIn["R2"].Set(leaked.Clone())
	clone.locRIB.Update(nil, leaked)
	clone.stats.UpdatesReceived += 7
	clone.events = append(clone.events, RouteEvent{At: time.Second, Prefix: leaked.Prefix, NewVia: "R2"})
	clone.sessions["R2"].downCount++
	clone.panicked = true
	clone.lastPanic = "boom"
	clone.SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error { return nil })
	if canonical(t, clone.Checkpoint()) == baseline {
		t.Fatal("dirtying the clone did not change its checkpoint; test is vacuous")
	}

	if err := clone.ResetTo(im, st); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if got := canonical(t, clone.Checkpoint()); got != baseline {
		t.Errorf("reset clone differs from baseline:\n got %s\nwant %s", got, baseline)
	}
	if clone.hook != nil {
		t.Errorf("reset must clear the fault hook")
	}
	if p, _ := clone.Panicked(); p {
		t.Errorf("reset must clear the crash flag")
	}
}

// TestResetToSkipsCleanRouter pins the clean-reset fast path: a router
// restored from (image, state) and not touched since resets to the same pair
// without allocating and stays byte-identical. An UPDATE delivered through
// HandleMessage dirties it, and the next reset rewinds it to the baseline.
func TestResetToSkipsCleanRouter(t *testing.T) {
	r1, r2 := convergedPeers(t)
	cp := r1.Checkpoint()
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := Restore(r2.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonical(t, clone.Checkpoint())

	allocs := testing.AllocsPerRun(100, func() {
		if err := clone.ResetTo(im, st); err != nil {
			t.Fatalf("ResetTo: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean ResetTo allocated %.1f times per call, want 0", allocs)
	}
	if got := canonical(t, clone.Checkpoint()); got != baseline {
		t.Errorf("clean reset changed the checkpoint:\n got %s\nwant %s", got, baseline)
	}

	net := netem.New(netem.Options{Seed: 1})
	net.AddNode(clone)
	net.AddNode(peer)
	net.Connect("R1", "R2", netem.LinkConfig{Delay: time.Millisecond})
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65002, 64999}, NextHop: 9}
	net.InjectMessage("R2", "R1", bgp.Encode(&bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("88.1.0.0/16")}}), 0)
	net.RunQuiescent(0)
	if canonical(t, clone.Checkpoint()) == baseline {
		t.Fatal("the delivered UPDATE did not change the checkpoint; test is vacuous")
	}
	if err := clone.ResetTo(im, st); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if got := canonical(t, clone.Checkpoint()); got != baseline {
		t.Errorf("reset after HandleMessage differs from baseline:\n got %s\nwant %s", got, baseline)
	}
}

// TestResetToRewindsInvariantCount: CheckInvariants records its failure
// count in the router's counters, so a check whose count differs from the
// restored state's dirties the router, and the next reset rewinds it.
func TestResetToRewindsInvariantCount(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	cp.Panicked, cp.LastPanic = true, "boom" // crashed, never checked
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonical(t, clone.Checkpoint())
	if len(clone.CheckInvariants()) == 0 || canonical(t, clone.Checkpoint()) == baseline {
		t.Fatal("the check did not change the failure count; test is vacuous")
	}
	if err := clone.ResetTo(im, st); err != nil {
		t.Fatalf("ResetTo: %v", err)
	}
	if got := canonical(t, clone.Checkpoint()); got != baseline {
		t.Errorf("reset after CheckInvariants differs from baseline:\n got %s\nwant %s", got, baseline)
	}
}

// TestRestoredClonesIsolated verifies that routes handed out by a State are
// deep-copied per restore: mutating one clone's RIB attributes must not leak
// into a sibling restored from the same State.
func TestRestoredClonesIsolated(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	a, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	p := bgp.MustParsePrefix("10.2.0.0/16")
	if a.LocRIB().Best(p) == nil {
		t.Fatal("restored clone missing the learned route")
	}
	a.LocRIB().Best(p).Attrs.SetLocalPref(999)
	if b.LocRIB().Best(p).Attrs.EffectiveLocalPref() == 999 {
		t.Errorf("clones share route attributes with the decoded state")
	}
}

// TestImageOfSerializedCheckpoint covers the cross-process path: a checkpoint
// that lost its in-process config must image from the textual policy form.
func TestImageOfSerializedCheckpoint(t *testing.T) {
	cp := convergedPair(t).Checkpoint()
	cp.cfg = nil // simulate a checkpoint that crossed a process boundary
	im, err := ImageOf(cp)
	if err != nil {
		t.Fatalf("ImageOf(serialized): %v", err)
	}
	st, err := DecodeState(cp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := im.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.SessionState("R2") != StateEstablished {
		t.Errorf("restored router lost session state")
	}
	if r.LocRIB().Best(bgp.MustParsePrefix("10.2.0.0/16")) == nil {
		t.Errorf("restored router lost learned routes")
	}
}
