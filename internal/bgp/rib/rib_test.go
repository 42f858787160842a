package rib

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/concolic"
)

func route(prefix string, peer string, peerAS bgp.ASN, lp uint32, pathLen int, opts ...func(*Route)) *Route {
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, NextHop: 0x0a000001}
	attrs.SetLocalPref(lp)
	for i := 0; i < pathLen; i++ {
		attrs.ASPath = append(attrs.ASPath, bgp.ASN(64500+i))
	}
	r := &Route{
		Prefix: bgp.MustParsePrefix(prefix),
		Attrs:  attrs,
		Peer:   peer,
		PeerAS: peerAS,
		EBGP:   true,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

func TestBetterLocalPref(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 200, 3)
	b := route("10.0.0.0/8", "p2", 65002, 100, 1)
	if !Better(nil, a, b) {
		t.Errorf("higher LOCAL_PREF must win despite longer path")
	}
	if Better(nil, b, a) {
		t.Errorf("asymmetry violated")
	}
}

func TestBetterASPathLength(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 100, 1)
	b := route("10.0.0.0/8", "p2", 65002, 100, 3)
	if !Better(nil, a, b) {
		t.Errorf("shorter AS path must win at equal LOCAL_PREF")
	}
}

func TestBetterOrigin(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 100, 2)
	b := route("10.0.0.0/8", "p2", 65002, 100, 2)
	b.Attrs.Origin = bgp.OriginIncomplete
	if !Better(nil, a, b) {
		t.Errorf("lower origin must win")
	}
}

func TestBetterMEDOnlySameAS(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 100, 2)
	a.Attrs.SetMED(10)
	b := route("10.0.0.0/8", "p2", 65001, 100, 2)
	b.Attrs.SetMED(5)
	if Better(nil, a, b) {
		t.Errorf("lower MED must win within the same neighbor AS")
	}
	// Different neighbor AS: MED skipped, falls through to router ID / name.
	c := route("10.0.0.0/8", "p0", 65009, 100, 2)
	c.Attrs.SetMED(500)
	if !Better(nil, c, a) {
		t.Errorf("MED must be ignored across ASes (tie falls to peer name)")
	}
}

func TestBetterEBGPOverIBGP(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 100, 2)
	b := route("10.0.0.0/8", "p2", 65002, 100, 2)
	b.EBGP = false
	if !Better(nil, a, b) {
		t.Errorf("eBGP must beat iBGP")
	}
}

func TestBetterLocalWins(t *testing.T) {
	local := route("10.0.0.0/8", "", 0, 100, 0)
	local.Local = true
	local.EBGP = false
	learned := route("10.0.0.0/8", "p1", 65001, 100, 0)
	if !Better(nil, local, learned) {
		t.Errorf("locally originated route must beat a learned route at equal pref")
	}
}

func TestBetterRouterIDTieBreak(t *testing.T) {
	a := route("10.0.0.0/8", "p1", 65001, 100, 2)
	a.PeerRouterID = 5
	b := route("10.0.0.0/8", "p2", 65002, 100, 2)
	b.PeerRouterID = 9
	if !Better(nil, a, b) {
		t.Errorf("lower router ID must win the tie break")
	}
}

func TestBetterNilHandling(t *testing.T) {
	r := route("10.0.0.0/8", "p1", 65001, 100, 1)
	if !Better(nil, r, nil) {
		t.Errorf("any route beats nil")
	}
	if Better(nil, nil, r) {
		t.Errorf("nil never beats a route")
	}
}

func TestSelectBestDeterministic(t *testing.T) {
	rs := []*Route{
		route("10.0.0.0/8", "p3", 65003, 100, 2),
		route("10.0.0.0/8", "p1", 65001, 300, 4),
		route("10.0.0.0/8", "p2", 65002, 300, 2),
	}
	best := SelectBest(nil, rs)
	if best.Peer != "p2" {
		t.Errorf("best = %s, want p2 (highest pref, then shortest path)", best.Peer)
	}
	if SelectBest(nil, nil) != nil {
		t.Errorf("SelectBest of empty set must be nil")
	}
}

func TestBetterSymbolicRecordsBranches(t *testing.T) {
	in := concolic.NewInput("update", nil)
	m := concolic.NewMachine(in, concolic.MachineOptions{})
	sb := m.Bytes("lp", []byte{0, 0, 0, 150})
	a := route("10.0.0.0/8", "p1", 65001, 150, 2)
	a.Sym = &SymAttrs{LocalPref: sb.U32(0), HasLocalPref: true}
	b := route("10.0.0.0/8", "p2", 65002, 100, 2)
	if !Better(m, a, b) {
		t.Fatalf("route with pref 150 should beat pref 100")
	}
	if len(m.Path()) == 0 {
		t.Errorf("symbolic comparison should record a branch")
	}
	// The recorded constraint must hold under the machine's assignment.
	for _, br := range m.Path() {
		if !br.Cond.EvalBool(m.Assignment()) {
			t.Errorf("recorded branch does not hold concretely")
		}
	}
}

func TestAdjRIBInBasics(t *testing.T) {
	a := NewAdjRIBIn()
	r1 := route("10.0.0.0/8", "p1", 65001, 100, 1)
	r2 := route("20.0.0.0/8", "p1", 65001, 100, 1)
	a.Set(r1)
	a.Set(r2)
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	if a.Get(r1.Prefix) != r1 {
		t.Errorf("Get returned wrong route")
	}
	if !a.Remove(r1.Prefix) || a.Remove(r1.Prefix) {
		t.Errorf("Remove semantics broken")
	}
	routes := a.Routes()
	if len(routes) != 1 || routes[0].Prefix != r2.Prefix {
		t.Errorf("Routes = %v", routes)
	}
	clone := a.Clone()
	clone.Get(r2.Prefix).Attrs.SetLocalPref(999)
	if a.Get(r2.Prefix).Attrs.EffectiveLocalPref() == 999 {
		t.Errorf("Clone is not deep")
	}
}

func TestAdjRIBOutBasics(t *testing.T) {
	a := NewAdjRIBOut()
	r := route("10.0.0.0/8", "p1", 65001, 100, 1)
	a.Set(r)
	if a.Len() != 1 || a.Get(r.Prefix) == nil {
		t.Errorf("Set/Get broken")
	}
	if len(a.Routes()) != 1 {
		t.Errorf("Routes broken")
	}
	if !a.Remove(r.Prefix) {
		t.Errorf("Remove broken")
	}
	if a.Clone().Len() != 0 {
		t.Errorf("Clone broken")
	}
}

func TestLocRIBUpdateWithdraw(t *testing.T) {
	l := NewLocRIB()
	p := bgp.MustParsePrefix("10.0.0.0/8")

	c1 := l.Update(nil, route("10.0.0.0/8", "p1", 65001, 100, 2))
	if !c1.Changed || c1.New == nil || c1.New.Peer != "p1" {
		t.Fatalf("first update change = %+v", c1)
	}
	// Better route from another peer takes over.
	c2 := l.Update(nil, route("10.0.0.0/8", "p2", 65002, 200, 2))
	if !c2.Changed || c2.New.Peer != "p2" || c2.Old.Peer != "p1" {
		t.Fatalf("second update change = %+v", c2)
	}
	// Worse route does not change the best.
	c3 := l.Update(nil, route("10.0.0.0/8", "p3", 65003, 50, 2))
	if c3.Changed {
		t.Fatalf("worse route must not change the selection: %+v", c3)
	}
	if len(l.Candidates(p)) != 3 {
		t.Errorf("candidates = %d, want 3", len(l.Candidates(p)))
	}
	// Withdraw the best: selection falls back to p1.
	c4 := l.Withdraw(nil, p, "p2")
	if !c4.Changed || c4.New.Peer != "p1" {
		t.Fatalf("withdraw change = %+v", c4)
	}
	// Withdraw remaining candidates: prefix disappears.
	l.Withdraw(nil, p, "p1")
	c5 := l.Withdraw(nil, p, "p3")
	if c5.New != nil {
		t.Fatalf("final withdraw should leave no best: %+v", c5)
	}
	if l.Len() != 0 {
		t.Errorf("Loc-RIB should be empty, len=%d", l.Len())
	}
	// Withdrawing an unknown source is a no-op.
	c6 := l.Withdraw(nil, p, "p9")
	if c6.Changed {
		t.Errorf("withdraw of unknown source must not report change")
	}
}

func TestLocRIBAttributeChangeIsChange(t *testing.T) {
	l := NewLocRIB()
	l.Update(nil, route("10.0.0.0/8", "p1", 65001, 100, 2))
	c := l.Update(nil, route("10.0.0.0/8", "p1", 65001, 300, 2))
	if !c.Changed {
		t.Errorf("attribute change on the selected route must be reported")
	}
}

func TestLocRIBPrefixesAndBestRoutes(t *testing.T) {
	l := NewLocRIB()
	l.Update(nil, route("20.0.0.0/8", "p1", 65001, 100, 1))
	l.Update(nil, route("10.0.0.0/8", "p1", 65001, 100, 1))
	ps := l.Prefixes()
	if len(ps) != 2 || !ps[0].Less(ps[1]) {
		t.Errorf("Prefixes not in canonical order: %v", ps)
	}
	if len(l.BestRoutes()) != 2 {
		t.Errorf("BestRoutes length wrong")
	}
}

func TestLocRIBClone(t *testing.T) {
	l := NewLocRIB()
	l.Update(nil, route("10.0.0.0/8", "p1", 65001, 100, 2))
	l.Update(nil, route("10.0.0.0/8", "p2", 65002, 200, 2))
	clone := l.Clone()
	p := bgp.MustParsePrefix("10.0.0.0/8")
	// Mutate the clone: original selection must be unaffected.
	clone.Withdraw(nil, p, "p2")
	if l.Best(p).Peer != "p2" {
		t.Errorf("clone mutation leaked into the original Loc-RIB")
	}
	if clone.Best(p).Peer != "p1" {
		t.Errorf("clone did not reselect after withdraw")
	}
}

func TestRouteClone(t *testing.T) {
	r := route("10.0.0.0/8", "p1", 65001, 100, 2)
	c := r.Clone()
	c.Attrs.SetLocalPref(999)
	if r.Attrs.EffectiveLocalPref() == 999 {
		t.Errorf("Route.Clone is not deep")
	}
	var nilRoute *Route
	if nilRoute.Clone() != nil {
		t.Errorf("nil route clone should be nil")
	}
	if r.String() == "" {
		t.Errorf("empty route string")
	}
}

func TestSymFromUpdate(t *testing.T) {
	if SymFromUpdate(nil) != nil {
		t.Errorf("nil update view should map to nil")
	}
	su := &bgp.SymUpdate{HasLocalPref: true, LocalPref: concolic.Const(55, 32)}
	sa := SymFromUpdate(su)
	if !sa.HasLocalPref || sa.LocalPref.Uint() != 55 {
		t.Errorf("SymFromUpdate = %+v", sa)
	}
}

// Property: Better is a strict weak ordering's asymmetry — a route cannot be
// both better and worse than another.
func TestQuickBetterAsymmetric(t *testing.T) {
	f := func(lp1, lp2 uint16, len1, len2 uint8, id1, id2 uint8) bool {
		a := route("10.0.0.0/8", "pa", 65001, uint32(lp1), int(len1%5)+1)
		a.PeerRouterID = bgp.RouterID(id1)
		b := route("10.0.0.0/8", "pb", 65002, uint32(lp2), int(len2%5)+1)
		b.PeerRouterID = bgp.RouterID(id2)
		ab := Better(nil, a, b)
		ba := Better(nil, b, a)
		return ab != ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SelectBest returns a route that is not beaten by any candidate.
func TestQuickSelectBestIsMaximal(t *testing.T) {
	f := func(prefs [5]uint16, lens [5]uint8) bool {
		var rs []*Route
		for i := 0; i < 5; i++ {
			r := route("10.0.0.0/8", string(rune('a'+i)), bgp.ASN(65000+i), uint32(prefs[i]), int(lens[i]%6)+1)
			rs = append(rs, r)
		}
		best := SelectBest(nil, rs)
		for _, r := range rs {
			if r != best && Better(nil, r, best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// checkOrderedIndex verifies the Loc-RIB's ordered prefix index against its
// entry map: Prefixes is the sorted key set and BestRoutes is Best over it.
func checkOrderedIndex(t *testing.T, step int, l *LocRIB) {
	t.Helper()
	keys := make([]bgp.Prefix, 0, len(l.entries))
	for p := range l.entries {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	if got := l.Prefixes(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("step %d: Prefixes() = %v, want %v", step, got, keys)
	}
	var want []*Route
	for _, p := range keys {
		if b := l.Best(p); b != nil {
			want = append(want, b)
		}
	}
	if got := l.BestRoutes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: BestRoutes() = %v, want %v", step, got, want)
	}
	if l.Len() != len(keys) {
		t.Fatalf("step %d: Len() = %d, want %d", step, l.Len(), len(keys))
	}
}

// TestLocRIBOrderedIndex runs seeded random sequences of every method that
// creates or deletes an entry and checks the ordered index after each one.
func TestLocRIBOrderedIndex(t *testing.T) {
	peers := []string{"", "p1", "p2", "p3"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomRoute := func() *Route {
			// Sixteen addresses times two lengths keep prefixes colliding,
			// so updates hit existing entries and withdrawals empty them.
			pfx := bgp.Prefix{Addr: uint32(rng.Intn(16)) << 24, Len: uint8(8 + 8*rng.Intn(2))}
			peer := peers[rng.Intn(len(peers))]
			r := route(pfx.String(), peer, bgp.ASN(65000+rng.Intn(4)), uint32(100+rng.Intn(3)*50), 1+rng.Intn(3))
			r.Local = peer == ""
			return r
		}
		l := NewLocRIB()
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				l.Update(nil, randomRoute())
			case op < 16:
				r := randomRoute()
				l.Withdraw(nil, r.Prefix, r.Peer)
			case op < 18:
				for n := rng.Intn(6); n > 0; n-- {
					l.InsertCandidate(randomRoute())
				}
				l.ReselectAll()
			case op < 19:
				if rng.Intn(3) == 0 {
					l.Clear()
				}
			default:
				orig := l
				l = l.Clone()
				checkOrderedIndex(t, step, orig)
				// Mutating the clone must leave the original's index alone.
				before := orig.Prefixes()
				l.Update(nil, randomRoute())
				if len(before) > 0 {
					l.Withdraw(nil, before[0], "")
				}
				if got := orig.Prefixes(); !reflect.DeepEqual(got, before) {
					t.Fatalf("step %d: clone mutation changed the original: %v, want %v", step, got, before)
				}
			}
			checkOrderedIndex(t, step, l)
		}
	}
}

// TestLocRIBConcurrentReaders calls the read methods from several goroutines
// at once; run under -race it proves reads write no shared state.
func TestLocRIBConcurrentReaders(t *testing.T) {
	l := NewLocRIB()
	for i := 0; i < 64; i++ {
		pfx := bgp.Prefix{Addr: uint32(i) << 24, Len: 8}
		l.Update(nil, route(pfx.String(), "p1", 65001, 100, 1+i%3))
		l.Update(nil, route(pfx.String(), "p2", 65002, 100, 1+i%2))
	}
	want := l.BestRoutes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ps := l.Prefixes()
				if len(ps) != 64 {
					t.Errorf("Prefixes() has %d entries, want 64", len(ps))
					return
				}
				for j, b := range l.BestRoutes() {
					if b != want[j] || l.Best(ps[j]) != b {
						t.Errorf("reader saw a different best route for %v", ps[j])
						return
					}
				}
				ps[0] = bgp.Prefix{} // the copy is the caller's own
			}
		}()
	}
	wg.Wait()
}
