// Package checker implements DiCE's property checking: the definitions of
// desired system behaviour, the local per-node checks, and the narrow
// information-sharing interface through which federated nodes exchange check
// results without exposing their private state and configuration.
//
// Each Property inspects a cluster (usually a shadow clone produced from a
// snapshot and subjected to an explored input) and produces a Result holding:
//
//   - Verdicts: the per-node pass/fail outcomes that cross administrative
//     boundaries. Their serialized size is the property's "disclosure" —
//     the experiments compare it against shipping full node state.
//   - Violations: concrete findings, each attributed to one of the paper's
//     three fault classes (operator mistake, policy conflict, programming
//     error).
package checker

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/topology"
)

// FaultClass is one of the paper's three fault classes, extended with the
// cross-implementation divergence class heterogeneous deployments add.
type FaultClass int

// Fault classes.
const (
	ClassUnknown FaultClass = iota
	ClassOperatorMistake
	ClassPolicyConflict
	ClassProgrammingError
	// ClassImplDivergence marks findings where two conformant router
	// implementations legally disagree — not a bug in either node, but an
	// emergent hazard of a heterogeneous federation (route selection that
	// depends on which vendor a node runs).
	ClassImplDivergence
)

// String renders the fault class.
func (c FaultClass) String() string {
	switch c {
	case ClassOperatorMistake:
		return "operator-mistake"
	case ClassPolicyConflict:
		return "policy-conflict"
	case ClassProgrammingError:
		return "programming-error"
	case ClassImplDivergence:
		return "implementation-divergence"
	}
	return "unknown"
}

// Ownership maps a prefix to the AS authorized to originate it — the public
// registry (in the spirit of an IRR/RPKI database) that origin validation
// checks against. It is public data, not private node state.
type Ownership map[bgp.Prefix]bgp.ASN

// OwnershipFromTopology derives the registry from the prefixes each topology
// node declares.
func OwnershipFromTopology(topo *topology.Topology) Ownership {
	out := make(Ownership)
	for _, n := range topo.Nodes {
		for _, p := range n.Prefixes {
			out[p] = n.AS
		}
	}
	return out
}

// Verdict is the unit of information a node shares with the checking plane:
// which property it checked, whether it holds locally, and a short detail
// string. No RIB contents or configuration leave the node.
type Verdict struct {
	Node     string
	Property string
	OK       bool
	Detail   string
}

// size approximates the serialized size of the verdict in bytes, used for
// disclosure accounting.
func (v Verdict) size() int {
	return len(v.Node) + len(v.Property) + len(v.Detail) + 1
}

// Violation is a concrete property violation.
type Violation struct {
	Property string
	Class    FaultClass
	Node     string
	Prefix   bgp.Prefix
	HasPfx   bool
	Detail   string
}

// String renders the violation compactly.
func (v Violation) String() string {
	if v.HasPfx {
		return fmt.Sprintf("[%s/%s] %s: %s (%s)", v.Class, v.Property, v.Node, v.Detail, v.Prefix)
	}
	return fmt.Sprintf("[%s/%s] %s: %s", v.Class, v.Property, v.Node, v.Detail)
}

// Key identifies the violation for deduplication across explored inputs.
func (v Violation) Key() string {
	return v.Property + "|" + v.Node + "|" + v.Prefix.String() + "|" + strconv.FormatBool(v.HasPfx)
}

// Result is the outcome of checking one property over one system state.
type Result struct {
	Property   string
	Violations []Violation
	Verdicts   []Verdict
	// DisclosedBytes is the number of bytes of node-local information that
	// crossed administrative boundaries to evaluate the property.
	DisclosedBytes int
}

// OK reports whether the property held.
func (r Result) OK() bool { return len(r.Violations) == 0 }

// Property is a checkable system property.
type Property interface {
	// Name identifies the property in reports.
	Name() string
	// Check evaluates the property over the cluster.
	Check(c *cluster.Cluster) Result
}

// Report aggregates the results of checking several properties.
type Report struct {
	Results []Result
}

// CheckAll evaluates every property.
func CheckAll(c *cluster.Cluster, props []Property) *Report {
	rep := &Report{}
	for _, p := range props {
		rep.Results = append(rep.Results, p.Check(c))
	}
	return rep
}

// Violations returns all violations across properties.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, res := range r.Results {
		out = append(out, res.Violations...)
	}
	return out
}

// DisclosedBytes sums the disclosure across properties.
func (r *Report) DisclosedBytes() int {
	total := 0
	for _, res := range r.Results {
		total += res.DisclosedBytes
	}
	return total
}

// OK reports whether every property held.
func (r *Report) OK() bool { return len(r.Violations()) == 0 }

// DefaultProperties returns the standard property set used by the DiCE
// experiments for a given topology: origin validity, reachability, forwarding
// loop freedom, convergence, and node health.
func DefaultProperties(topo *topology.Topology) []Property {
	own := OwnershipFromTopology(topo)
	return []Property{
		OriginValidity{Ownership: own},
		Reachability{Ownership: own},
		LoopFreedom{},
		Convergence{MaxChangesPerPrefix: 8},
		NodeHealth{},
	}
}

// PropertiesByName constructs standard properties from their registry names
// ("origin-validity", "reachability", "loop-freedom", "convergence",
// "node-health"), configured exactly as DefaultProperties configures them.
// Distributed execution uses it to rebuild a campaign's property set on the
// agent side of the wire: property values carry funcs and derived maps that
// cannot be serialized, but the standard set is reconstructible from names
// plus the topology alone.
func PropertiesByName(topo *topology.Topology, names ...string) ([]Property, error) {
	own := OwnershipFromTopology(topo)
	out := make([]Property, 0, len(names))
	for _, name := range names {
		switch name {
		case "origin-validity":
			out = append(out, OriginValidity{Ownership: own})
		case "reachability":
			out = append(out, Reachability{Ownership: own})
		case "loop-freedom":
			out = append(out, LoopFreedom{})
		case "convergence":
			out = append(out, Convergence{MaxChangesPerPrefix: 8})
		case "node-health":
			out = append(out, NodeHealth{})
		default:
			return nil, fmt.Errorf("checker: unknown property %q", name)
		}
	}
	return out, nil
}

//
// OriginValidity: no AS announces a prefix it does not own (prefix hijacking,
// typically the result of an operator mistake such as a missing import
// filter or a mis-origination).
//

// OriginValidity checks that the originating AS of every selected route is
// the registered owner of the prefix.
type OriginValidity struct {
	Ownership Ownership
}

// Name implements Property.
func (OriginValidity) Name() string { return "origin-validity" }

// Check implements Property. Each node checks its own Loc-RIB against the
// public registry and shares only verdicts.
func (p OriginValidity) Check(c *cluster.Cluster) Result {
	res := Result{Property: p.Name()}
	for _, name := range c.RouterNames() {
		r := c.Router(name)
		ok := true
		for _, best := range r.LocRIB().BestRoutes() {
			owner, registered := p.Ownership[best.Prefix]
			if !registered {
				continue // unregistered prefix: out of scope for this property
			}
			originAS := best.Attrs.OriginAS()
			if best.Local {
				originAS = r.Config().AS
			}
			if originAS != owner {
				ok = false
				res.Violations = append(res.Violations, Violation{
					Property: p.Name(),
					Class:    ClassOperatorMistake,
					Node:     name,
					Prefix:   best.Prefix,
					HasPfx:   true,
					Detail:   fmt.Sprintf("prefix owned by AS %d is originated by AS %d", owner, originAS),
				})
			}
		}
		v := Verdict{Node: name, Property: p.Name(), OK: ok}
		if !ok {
			v.Detail = "hijacked prefix selected"
		}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

//
// Reachability: every registered prefix has a selected route at every node
// (no blackholes after convergence).
//

// Reachability checks that every node has a route to every registered prefix.
type Reachability struct {
	Ownership Ownership
}

// Name implements Property.
func (Reachability) Name() string { return "reachability" }

// Check implements Property.
func (p Reachability) Check(c *cluster.Cluster) Result {
	res := Result{Property: p.Name()}
	// The registry never changes during a check, so it is listed once and
	// only a node's missing prefixes are sorted.
	prefixes := make([]bgp.Prefix, 0, len(p.Ownership))
	for pfx := range p.Ownership {
		prefixes = append(prefixes, pfx)
	}
	var missing []bgp.Prefix
	for _, name := range c.RouterNames() {
		lr := c.Router(name).LocRIB()
		missing = missing[:0]
		for _, pfx := range prefixes {
			if lr.Best(pfx) == nil {
				missing = append(missing, pfx)
			}
		}
		bgp.SortPrefixes(missing)
		for _, pfx := range missing {
			res.Violations = append(res.Violations, Violation{
				Property: p.Name(),
				Class:    ClassOperatorMistake,
				Node:     name,
				Prefix:   pfx,
				HasPfx:   true,
				Detail:   "no route to registered prefix (blackhole)",
			})
		}
		v := Verdict{Node: name, Property: p.Name(), OK: len(missing) == 0}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

//
// LoopFreedom: following best-route next hops never cycles.
//

// LoopFreedom checks that the forwarding graph induced by selected routes is
// acyclic for every prefix. Nodes disclose only a minimized projection of
// their state — (prefix, next-hop node) pairs — not attributes, policies or
// alternative routes. It is the one default property that needs a cross-node
// view, so it implements ProjectionProperty: federated campaigns assemble
// the projection from the per-domain summaries and evaluate it at the
// exploring domain instead of checking each domain's subgraph in isolation
// (which would miss loops that span domains).
type LoopFreedom struct{}

// Name implements Property.
func (LoopFreedom) Name() string { return "loop-freedom" }

// ForwardingEdge is one entry of the minimized forwarding projection a node
// discloses for loop checking: for a prefix, the neighbor its selected route
// forwards to ("" when the node originates the prefix). No attributes,
// preferences or alternative routes are included.
type ForwardingEdge struct {
	Node    string
	Prefix  bgp.Prefix
	NextHop string
}

// size is the edge's disclosure charge: node name, 5 prefix bytes, neighbor
// name (the same 5+len convention the centralized accounting uses).
func (e ForwardingEdge) size() int { return len(e.Node) + 5 + len(e.NextHop) }

// ProjectionProperty is a Property that cannot be evaluated per-node or
// per-domain: it needs a cross-node view assembled from minimized per-node
// projections. Federated campaigns route such properties through the
// summary exchange — every domain ships Projection of its own view, and the
// exploring domain evaluates CheckProjection over the union. Summaries
// carry a single projection, so a federated campaign checks at most one
// distinct projection-based property and rejects property sets with more.
type ProjectionProperty interface {
	Property
	// Projection extracts the minimized projection of the (possibly
	// domain-scoped) cluster view.
	Projection(c *cluster.Cluster) []ForwardingEdge
	// CheckProjection evaluates the property over an assembled projection
	// covering the given node set.
	CheckProjection(edges []ForwardingEdge, nodes []string) Result
}

// Projection implements ProjectionProperty.
func (LoopFreedom) Projection(c *cluster.Cluster) []ForwardingEdge {
	names := c.RouterNames()
	size := 0
	for _, name := range names {
		size += c.Router(name).LocRIB().Len()
	}
	edges := make([]ForwardingEdge, 0, size)
	for _, name := range names {
		for _, best := range c.Router(name).LocRIB().BestRoutes() {
			e := ForwardingEdge{Node: name, Prefix: best.Prefix}
			if !best.Local {
				e.NextHop = best.Peer
			}
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		return nil
	}
	return edges
}

// Check implements Property: project the whole cluster, then evaluate. The
// per-edge disclosure charge stays on this path (prefix + neighbor name per
// edge, as before); CheckProjection charges only its verdicts, since in a
// federated run the edges are charged by the summary bus instead.
func (p LoopFreedom) Check(c *cluster.Cluster) Result {
	edges := p.Projection(c)
	res := p.CheckProjection(edges, c.RouterNames())
	for _, e := range edges {
		res.DisclosedBytes += 5 + len(e.NextHop)
	}
	return res
}

// Per-node walk states of CheckProjection's memoized loop walk.
const (
	walkUnvisited uint8 = iota
	walkOnPath
	walkLoops
	walkTerminates
)

// projHop is one forwarding edge with its prefix and names interned: pfx
// indexes the prefixes in order of first appearance, and next is -1 when the
// node originates the prefix.
type projHop struct {
	pfx, node, next int32
}

// CheckProjection implements ProjectionProperty. Node names are interned to
// ints once and the edges grouped by prefix into one next-hop row per prefix
// (the last edge for a (node, prefix) pair wins). Each row is a functional
// graph, so one memoized walk per prefix settles every node as either
// reaching a loop or terminating, and visits each node once however many
// walks pass through it.
func (p LoopFreedom) CheckProjection(edges []ForwardingEdge, nodes []string) Result {
	res := Result{Property: p.Name()}
	if len(nodes) > 0 {
		res.Verdicts = make([]Verdict, 0, len(nodes))
	}
	ids := make(map[string]int32, len(nodes))
	intern := func(name string) int32 {
		id, ok := ids[name]
		if !ok {
			id = int32(len(ids))
			ids[name] = id
		}
		return id
	}
	starts := make([]int32, len(nodes))
	for i, name := range nodes {
		starts[i] = intern(name)
	}
	// One pass interns every edge: its prefix by first appearance, its
	// names by id. Projections list a node's edges together, so the node's
	// id is looked up once per run of edges.
	seen := make(map[bgp.Prefix]int32)
	var prefixes []bgp.Prefix
	hops := make([]projHop, len(edges))
	lastNode, lastID := "", int32(-1)
	for i, e := range edges {
		if lastID < 0 || e.Node != lastNode {
			lastNode, lastID = e.Node, intern(e.Node)
		}
		pi, ok := seen[e.Prefix]
		if !ok {
			pi = int32(len(prefixes))
			seen[e.Prefix] = pi
			prefixes = append(prefixes, e.Prefix)
		}
		h := projHop{pfx: pi, node: lastID, next: -1}
		if e.NextHop != "" {
			h.next = intern(e.NextHop)
		}
		hops[i] = h
	}
	sorted := slices.Clone(prefixes)
	bgp.SortPrefixes(sorted)
	rank := make([]int, len(prefixes))
	for pi, pfx := range prefixes {
		rank[pi], _ = slices.BinarySearchFunc(sorted, pfx, bgp.Prefix.Compare)
	}

	// next[r*n+id] is the node id forwards to for the prefix of rank r, or
	// -1 when it originates the prefix or has no route.
	n := len(ids)
	next := make([]int32, len(prefixes)*n)
	for i := range next {
		next[i] = -1
	}
	for _, h := range hops {
		next[rank[h.pfx]*n+int(h.node)] = h.next
	}
	state := make([]uint8, n)
	// reported[id] is 1 + the rank of the last prefix a loop was reported
	// for from start id: zero means no walk from id ever reached a loop.
	reported := make([]int32, n)
	var path []int32
	for r, pfx := range sorted {
		row := next[r*n : (r+1)*n]
		for i, start := range starts {
			cur, outcome := start, walkTerminates
			path = path[:0]
			for {
				if s := state[cur]; s != walkUnvisited {
					if s != walkTerminates {
						outcome = walkLoops // closed a cycle, or joined one
					}
					break
				}
				state[cur] = walkOnPath
				path = append(path, cur)
				if row[cur] < 0 {
					break // reached the origin or a node with no route
				}
				cur = row[cur]
			}
			for _, id := range path {
				state[id] = outcome
			}
			if state[start] == walkLoops && reported[start] != int32(r)+1 {
				reported[start] = int32(r) + 1
				res.Violations = append(res.Violations, Violation{
					Property: p.Name(),
					Class:    ClassPolicyConflict,
					Node:     nodes[i],
					Prefix:   pfx,
					HasPfx:   true,
					Detail:   "forwarding loop",
				})
			}
		}
		clear(state)
	}
	for i, name := range nodes {
		v := Verdict{Node: name, Property: p.Name(), OK: reported[starts[i]] == 0}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

//
// Convergence: the system settles instead of oscillating (persistent route
// flapping is the signature of a policy conflict such as a dispute wheel).
//

// Convergence checks that no node changed its best route for any single
// prefix more than MaxChangesPerPrefix times.
type Convergence struct {
	MaxChangesPerPrefix int
}

// Name implements Property.
func (Convergence) Name() string { return "convergence" }

// Check implements Property. Each node inspects only its own event log and
// shares a verdict.
func (p Convergence) Check(c *cluster.Cluster) Result {
	limit := p.MaxChangesPerPrefix
	if limit <= 0 {
		limit = 8
	}
	res := Result{Property: p.Name()}
	// One count map serves every router; only the prefixes over the limit
	// are sorted, and almost none are.
	counts := make(map[bgp.Prefix]int)
	var over []bgp.Prefix
	for _, name := range c.RouterNames() {
		clear(counts)
		for _, ev := range c.Router(name).Events() {
			counts[ev.Prefix]++
		}
		over = over[:0]
		for pfx, n := range counts {
			if n > limit {
				over = append(over, pfx)
			}
		}
		bgp.SortPrefixes(over)
		for _, pfx := range over {
			res.Violations = append(res.Violations, Violation{
				Property: p.Name(),
				Class:    ClassPolicyConflict,
				Node:     name,
				Prefix:   pfx,
				HasPfx:   true,
				Detail:   fmt.Sprintf("best route changed %d times (limit %d): oscillation", counts[pfx], limit),
			})
		}
		v := Verdict{Node: name, Property: p.Name(), OK: len(over) == 0}
		res.Verdicts = append(res.Verdicts, v)
		res.DisclosedBytes += v.size()
	}
	return res
}

//
// NodeHealth: no node crashed or violates its local invariants (programming
// errors).
//

// NodeHealth checks per-node invariants and crash status.
type NodeHealth struct{}

// Name implements Property.
func (NodeHealth) Name() string { return "node-health" }

// Check implements Property.
func (p NodeHealth) Check(c *cluster.Cluster) Result {
	res := Result{Property: p.Name()}
	for _, name := range c.RouterNames() {
		r := c.Router(name)
		violations := r.CheckInvariants()
		sort.Strings(violations)
		for _, v := range violations {
			res.Violations = append(res.Violations, Violation{
				Property: p.Name(),
				Class:    ClassProgrammingError,
				Node:     name,
				Detail:   v,
			})
		}
		verdict := Verdict{Node: name, Property: p.Name(), OK: len(violations) == 0}
		if !verdict.OK {
			verdict.Detail = fmt.Sprintf("%d invariant violations", len(violations))
		}
		res.Verdicts = append(res.Verdicts, verdict)
		res.DisclosedBytes += verdict.size()
	}
	return res
}
