package checker

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bird"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

func convergedLine(t *testing.T, n int, override func(cfg *bird.Config)) (*topology.Topology, *cluster.Cluster) {
	t.Helper()
	topo := topology.Line(n)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1, ConfigOverride: override})
	c.Converge()
	return topo, c
}

// fullStateBytes is what sharing every node's whole checkpoint with the
// checking plane would cost: the baseline the narrow interface beats.
func fullStateBytes(t *testing.T, c *cluster.Cluster) int {
	t.Helper()
	sizes, err := checkpoint.Measure(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return sizes.NodeBytes()
}

func TestOwnershipFromTopology(t *testing.T) {
	topo := topology.Line(3)
	own := OwnershipFromTopology(topo)
	if len(own) != 3 {
		t.Fatalf("ownership entries = %d, want 3", len(own))
	}
	if own[topo.Nodes[0].Prefixes[0]] != topo.Nodes[0].AS {
		t.Errorf("ownership mapping wrong")
	}
}

func TestAllPropertiesHoldOnHealthySystem(t *testing.T) {
	topo, c := convergedLine(t, 4, nil)
	report := CheckAll(c, DefaultProperties(topo))
	if !report.OK() {
		t.Fatalf("healthy system reported violations: %v", report.Violations())
	}
	if report.DisclosedBytes() <= 0 {
		t.Errorf("disclosure accounting missing")
	}
	// The narrow interface shares far less than full node state.
	full := fullStateBytes(t, c)
	if report.DisclosedBytes() >= full {
		t.Errorf("narrow interface (%d bytes) should be smaller than full state (%d bytes)",
			report.DisclosedBytes(), full)
	}
}

func TestOriginValidityDetectsHijack(t *testing.T) {
	// R3 originates R1's prefix as well (mis-origination).
	topo := topology.Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1, ConfigOverride: func(cfg *bird.Config) {
		if cfg.Name == "R3" {
			cfg.Networks = append(cfg.Networks, victim)
		}
	}})
	c.Converge()

	res := OriginValidity{Ownership: OwnershipFromTopology(topo)}.Check(c)
	if res.OK() {
		t.Fatalf("hijack not detected")
	}
	found := false
	for _, v := range res.Violations {
		if v.Class != ClassOperatorMistake {
			t.Errorf("hijack should be classified as operator mistake, got %v", v.Class)
		}
		if v.HasPfx && v.Prefix == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("violations do not name the hijacked prefix: %v", res.Violations)
	}
	// Verdicts never contain RIB contents, only pass/fail and a short note.
	for _, v := range res.Verdicts {
		if strings.Contains(v.Detail, "as-path") || strings.Contains(v.Detail, "next-hop") {
			t.Errorf("verdict leaks route details: %q", v.Detail)
		}
	}
}

func TestReachabilityDetectsBlackhole(t *testing.T) {
	// R2 refuses every announcement from R1, so prefixes behind R1 are
	// unreachable from R2 and R3.
	topo := topology.Line(3)
	c := cluster.MustBuild(topo, cluster.Options{Seed: 1, ConfigOverride: func(cfg *bird.Config) {
		if cfg.Name == "R2" {
			for i := range cfg.Neighbors {
				if cfg.Neighbors[i].Name == "R1" {
					pol := rejectPrefixPolicy("BLOCK", topo.Nodes[0].Prefixes[0])
					cfg.Policies["BLOCK"] = pol
					cfg.Neighbors[i].Import = "BLOCK"
				}
			}
		}
	}})
	c.Converge()
	res := Reachability{Ownership: OwnershipFromTopology(topo)}.Check(c)
	if res.OK() {
		t.Fatalf("blackhole not detected")
	}
}

func rejectPrefixPolicy(name string, p bgp.Prefix) *policy.Policy {
	pol, err := policy.ParsePolicy("policy " + name + " { if prefix = " + p.String() + " { reject } default accept }")
	if err != nil {
		panic(err)
	}
	return pol
}

func TestConvergenceDetectsOscillation(t *testing.T) {
	// Synthesize an oscillating event log by running a healthy system and
	// then checking with an artificially low threshold.
	topo, c := convergedLine(t, 4, nil)
	_ = topo
	res := Convergence{MaxChangesPerPrefix: 0}.Check(c)
	_ = res // threshold 0 falls back to the default; use explicit threshold below
	strict := Convergence{MaxChangesPerPrefix: 1}
	if strict.Check(c).OK() {
		// With threshold 1 some prefix almost certainly changed best twice
		// during convergence; if not, the system is suspiciously quiet.
		t.Skip("no prefix changed best more than once during convergence")
	}
	for _, v := range strict.Check(c).Violations {
		if v.Class != ClassPolicyConflict {
			t.Errorf("oscillation should be classified as policy conflict")
		}
	}
}

func TestNodeHealthDetectsCrash(t *testing.T) {
	topo, c := convergedLine(t, 2, nil)
	_ = topo
	// Simulate a crashed handler.
	c.Router("R2").SetUpdateHook(func(r node.HookContext, from string, u *bgp.Update) error {
		return errInjected
	})
	attrs := &bgp.PathAttributes{Origin: bgp.OriginIGP, ASPath: []bgp.ASN{65001}, NextHop: 1}
	c.InjectUpdate("R1", "R2", &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{bgp.MustParsePrefix("99.0.0.0/8")}})
	c.Converge()

	res := NodeHealth{}.Check(c)
	if res.OK() {
		t.Fatalf("crash not detected")
	}
	if res.Violations[0].Class != ClassProgrammingError {
		t.Errorf("crash should be classified as programming error")
	}
}

var errInjected = errorString("injected crash")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestLoopFreedomCleanAndDisclosureMinimal(t *testing.T) {
	topo, c := convergedLine(t, 4, nil)
	res := LoopFreedom{}.Check(c)
	if !res.OK() {
		t.Fatalf("unexpected loops: %v", res.Violations)
	}
	if res.DisclosedBytes <= 0 {
		t.Errorf("loop checking must account for its (minimal) disclosure")
	}
	if res.DisclosedBytes >= fullStateBytes(t, c) {
		t.Errorf("projection disclosure should be far below full state")
	}
	_ = topo
}

func TestReportAggregation(t *testing.T) {
	topo, c := convergedLine(t, 3, nil)
	rep := CheckAll(c, DefaultProperties(topo))
	if len(rep.Results) != 5 {
		t.Errorf("results = %d, want 5 properties", len(rep.Results))
	}
	if !rep.OK() || len(rep.Violations()) != 0 {
		t.Errorf("aggregation broken: %v", rep.Violations())
	}
}

func TestFaultClassAndViolationStrings(t *testing.T) {
	for _, c := range []FaultClass{ClassUnknown, ClassOperatorMistake, ClassPolicyConflict, ClassProgrammingError} {
		if c.String() == "" {
			t.Errorf("empty class name")
		}
	}
	v := Violation{Property: "p", Class: ClassOperatorMistake, Node: "R1", Detail: "d",
		Prefix: bgp.MustParsePrefix("10.0.0.0/8"), HasPfx: true}
	if v.String() == "" || v.Key() == "" {
		t.Errorf("violation rendering broken")
	}
	v2 := Violation{Property: "p", Class: ClassProgrammingError, Node: "R1", Detail: "d"}
	if v2.String() == "" || v2.Key() == v.Key() {
		t.Errorf("violation keys should differ")
	}
}

// TestViolationKeyMatchesFmt pins Key to the fmt form it replaced, byte for
// byte, over seeded random prefixes and both HasPfx values.
func TestViolationKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := Violation{
			Property: []string{"origin-validity", "loop-freedom", "", "p|q"}[rng.Intn(4)],
			Node:     fmt.Sprintf("R%d", rng.Intn(300)),
			Prefix:   bgp.Prefix{Addr: rng.Uint32(), Len: uint8(rng.Intn(33))},
		}
		for _, has := range []bool{false, true} {
			v.HasPfx = has
			want := fmt.Sprintf("%s|%s|%s|%v", v.Property, v.Node, v.Prefix, v.HasPfx)
			if got := v.Key(); got != want {
				t.Fatalf("Key() = %q, want %q", got, want)
			}
		}
	}
}

// checkProjectionReference is the original quadratic loop check: one walk
// with a fresh visited set from every (prefix, start) pair. It is the oracle
// LoopFreedom.CheckProjection must agree with exactly.
func checkProjectionReference(edges []ForwardingEdge, nodes []string) Result {
	p := LoopFreedom{}
	res := Result{Property: p.Name()}
	// nextHop[node][prefix] = neighbor the node forwards to ("" = local).
	nextHop := make(map[string]map[bgp.Prefix]string)
	prefixSet := make(map[bgp.Prefix]bool)
	for _, e := range edges {
		proj := nextHop[e.Node]
		if proj == nil {
			proj = make(map[bgp.Prefix]string)
			nextHop[e.Node] = proj
		}
		proj[e.Prefix] = e.NextHop
		prefixSet[e.Prefix] = true
	}
	prefixes := make([]bgp.Prefix, 0, len(prefixSet))
	for pfx := range prefixSet {
		prefixes = append(prefixes, pfx)
	}
	bgp.SortPrefixes(prefixes)

	loopSeen := make(map[string]bool) // start+prefix keys already reported
	loopByNode := make(map[string]bool)
	for _, pfx := range prefixes {
		for _, start := range nodes {
			seen := map[string]bool{}
			cur := start
			for {
				if seen[cur] {
					// Cycle reached from start for this prefix.
					key := start + "|" + pfx.String()
					if !loopSeen[key] {
						loopSeen[key] = true
						loopByNode[start] = true
						res.Violations = append(res.Violations, Violation{
							Property: p.Name(),
							Class:    ClassPolicyConflict,
							Node:     start,
							Prefix:   pfx,
							HasPfx:   true,
							Detail:   "forwarding loop",
						})
					}
					break
				}
				seen[cur] = true
				next, ok := nextHop[cur][pfx]
				if !ok || next == "" {
					break // reached the origin or a node with no route
				}
				cur = next
			}
		}
	}
	for _, name := range nodes {
		v := Verdict{Node: name, Property: p.Name(), OK: !loopByNode[name]}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

// randomProjection builds a seeded projection that exercises every corner of
// the loop walk: cycles of length 1 to k (self-loops included), next hops
// naming nodes absent from the node list, nodes with no edge for a prefix,
// duplicate (node, prefix) edges, and duplicate names in the node list.
func randomProjection(rng *rand.Rand) ([]ForwardingEdge, []string) {
	k := 1 + rng.Intn(12)
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
	}
	outside := []string{"X0", "X1", "X2"}
	pick := func() string {
		if rng.Intn(6) == 0 {
			return outside[rng.Intn(len(outside))]
		}
		return names[rng.Intn(k)]
	}

	var nodes []string
	for _, i := range rng.Perm(k) {
		if rng.Intn(5) != 0 {
			nodes = append(nodes, names[i])
		}
		if rng.Intn(8) == 0 {
			nodes = append(nodes, names[rng.Intn(k)])
		}
	}

	var edges []ForwardingEdge
	for np := rng.Intn(5); np >= 0; np-- {
		pfx := bgp.Prefix{Addr: uint32(rng.Intn(4)) << 24, Len: uint8(8 + rng.Intn(2))}
		// Random next hops: origin, a member, an absent name, or itself.
		for _, from := range append(names, outside...) {
			if rng.Intn(4) == 0 {
				continue // no edge for this prefix
			}
			e := ForwardingEdge{Node: from, Prefix: pfx}
			switch rng.Intn(4) {
			case 0:
			case 1:
				e.NextHop = from
			default:
				e.NextHop = pick()
			}
			edges = append(edges, e)
		}
		// A planted cycle of length 1..k over distinct members.
		if rng.Intn(2) == 0 {
			perm := rng.Perm(k)[:1+rng.Intn(k)]
			for i, j := range perm {
				edges = append(edges, ForwardingEdge{Node: names[j], Prefix: pfx, NextHop: names[perm[(i+1)%len(perm)]]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	// Duplicate (node, prefix) pairs with a different next hop: the last
	// edge wins.
	for d := rng.Intn(4); d > 0 && len(edges) > 0; d-- {
		e := edges[rng.Intn(len(edges))]
		e.NextHop = pick()
		edges = append(edges, e)
	}
	return edges, nodes
}

func TestCheckProjectionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loops := 0
	for i := 0; i < 3000; i++ {
		edges, nodes := randomProjection(rng)
		want := checkProjectionReference(edges, nodes)
		got := LoopFreedom{}.CheckProjection(edges, nodes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: edges %v nodes %v\n got  %+v\n want %+v", i, edges, nodes, got, want)
		}
		loops += len(want.Violations)
	}
	if loops == 0 {
		t.Fatal("no random projection contained a loop")
	}
	for _, c := range []struct {
		edges []ForwardingEdge
		nodes []string
	}{{nil, nil}, {nil, []string{"R1"}}, {[]ForwardingEdge{{Node: "R1", NextHop: "R1"}}, nil}} {
		if got, want := (LoopFreedom{}).CheckProjection(c.edges, c.nodes), checkProjectionReference(c.edges, c.nodes); !reflect.DeepEqual(got, want) {
			t.Errorf("edges %v nodes %v: got %+v, want %+v", c.edges, c.nodes, got, want)
		}
	}
}

// convergenceReference is the original convergence check: a fresh count map
// per router and a sort of every prefix. Convergence.Check must agree with
// it exactly.
func convergenceReference(c *cluster.Cluster, limit int) Result {
	p := Convergence{MaxChangesPerPrefix: limit}
	res := Result{Property: p.Name()}
	for _, name := range c.RouterNames() {
		counts := make(map[bgp.Prefix]int)
		for _, ev := range c.Router(name).Events() {
			counts[ev.Prefix]++
		}
		ok := true
		prefixes := make([]bgp.Prefix, 0, len(counts))
		for pfx := range counts {
			prefixes = append(prefixes, pfx)
		}
		bgp.SortPrefixes(prefixes)
		for _, pfx := range prefixes {
			if counts[pfx] > limit {
				ok = false
				res.Violations = append(res.Violations, Violation{
					Property: p.Name(),
					Class:    ClassPolicyConflict,
					Node:     name,
					Prefix:   pfx,
					HasPfx:   true,
					Detail:   fmt.Sprintf("best route changed %d times (limit %d): oscillation", counts[pfx], limit),
				})
			}
		}
		v := Verdict{Node: name, Property: p.Name(), OK: ok}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

// TestConvergenceMatchesReference sweeps the limit over every change count
// the converged demo shows, so both the clean and the violating paths are
// compared with the original check.
func TestConvergenceMatchesReference(t *testing.T) {
	c := cluster.MustBuild(topology.Demo27(), cluster.Options{Seed: 1})
	c.Converge()
	most := 0
	for _, name := range c.RouterNames() {
		counts := make(map[bgp.Prefix]int)
		for _, ev := range c.Router(name).Events() {
			counts[ev.Prefix]++
			most = max(most, counts[ev.Prefix])
		}
	}
	if most < 2 {
		t.Fatalf("no prefix changed best twice (most %d): the violating path is not exercised", most)
	}
	violations := 0
	for limit := 1; limit <= most; limit++ {
		got := Convergence{MaxChangesPerPrefix: limit}.Check(c)
		if want := convergenceReference(c, limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("limit %d:\n got  %+v\n want %+v", limit, got, want)
		}
		violations += len(got.Violations)
	}
	if violations == 0 {
		t.Fatal("no limit produced a violation")
	}
}

// TestReachabilityReportsMissingPrefixesSorted registers prefixes nobody
// announces, so every node misses several, and checks they are reported in
// canonical order per node, nodes in cluster order.
func TestReachabilityReportsMissingPrefixesSorted(t *testing.T) {
	topo, c := convergedLine(t, 3, nil)
	own := OwnershipFromTopology(topo)
	unannounced := []bgp.Prefix{
		bgp.MustParsePrefix("192.0.2.0/24"),
		bgp.MustParsePrefix("10.200.0.0/16"),
		bgp.MustParsePrefix("10.200.0.0/24"),
		bgp.MustParsePrefix("1.0.0.0/8"),
	}
	for _, pfx := range unannounced {
		own[pfx] = 64999
	}
	sorted := append([]bgp.Prefix(nil), unannounced...)
	bgp.SortPrefixes(sorted)
	var want []Violation
	for _, name := range c.RouterNames() {
		for _, pfx := range sorted {
			want = append(want, Violation{
				Property: "reachability", Class: ClassOperatorMistake, Node: name,
				Prefix: pfx, HasPfx: true, Detail: "no route to registered prefix (blackhole)",
			})
		}
	}
	res := Reachability{Ownership: own}.Check(c)
	if !reflect.DeepEqual(res.Violations, want) {
		t.Fatalf("violations = %v, want %v", res.Violations, want)
	}
	for _, v := range res.Verdicts {
		if v.OK {
			t.Errorf("%s: verdict OK despite missing prefixes", v.Node)
		}
	}
}
