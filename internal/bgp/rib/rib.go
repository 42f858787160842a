package rib

import (
	"slices"
	"sort"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/concolic"
)

// AdjRIBIn stores the routes received from one peer, before import policy.
type AdjRIBIn struct {
	routes map[bgp.Prefix]*Route
}

// NewAdjRIBIn returns an empty Adj-RIB-In.
func NewAdjRIBIn() *AdjRIBIn {
	return &AdjRIBIn{routes: make(map[bgp.Prefix]*Route)}
}

// Set stores (or replaces) the route for its prefix.
func (a *AdjRIBIn) Set(r *Route) { a.routes[r.Prefix] = r }

// Remove deletes the route for the prefix and reports whether one existed.
func (a *AdjRIBIn) Remove(p bgp.Prefix) bool {
	if _, ok := a.routes[p]; !ok {
		return false
	}
	delete(a.routes, p)
	return true
}

// Get returns the route for the prefix, or nil.
func (a *AdjRIBIn) Get(p bgp.Prefix) *Route { return a.routes[p] }

// Len returns the number of stored routes.
func (a *AdjRIBIn) Len() int { return len(a.routes) }

// Routes returns the stored routes in canonical prefix order.
func (a *AdjRIBIn) Routes() []*Route {
	out := make([]*Route, 0, len(a.routes))
	for _, r := range a.routes {
		out = append(out, r)
	}
	SortRoutes(out)
	return out
}

// Clear removes every stored route, retaining the allocated map (the
// clone-reset path clears and refills RIBs instead of reallocating them).
func (a *AdjRIBIn) Clear() { clear(a.routes) }

// Clone deep-copies the Adj-RIB-In.
func (a *AdjRIBIn) Clone() *AdjRIBIn {
	out := NewAdjRIBIn()
	for p, r := range a.routes {
		out.routes[p] = r.Clone()
	}
	return out
}

// AdjRIBOut stores the routes advertised to one peer, after export policy.
type AdjRIBOut struct {
	routes map[bgp.Prefix]*Route
}

// NewAdjRIBOut returns an empty Adj-RIB-Out.
func NewAdjRIBOut() *AdjRIBOut {
	return &AdjRIBOut{routes: make(map[bgp.Prefix]*Route)}
}

// Set stores (or replaces) the advertised route for its prefix.
func (a *AdjRIBOut) Set(r *Route) { a.routes[r.Prefix] = r }

// Remove deletes the advertisement for the prefix and reports whether one
// existed.
func (a *AdjRIBOut) Remove(p bgp.Prefix) bool {
	if _, ok := a.routes[p]; !ok {
		return false
	}
	delete(a.routes, p)
	return true
}

// Get returns the advertised route for the prefix, or nil.
func (a *AdjRIBOut) Get(p bgp.Prefix) *Route { return a.routes[p] }

// Len returns the number of advertised prefixes.
func (a *AdjRIBOut) Len() int { return len(a.routes) }

// Routes returns the advertised routes in canonical prefix order.
func (a *AdjRIBOut) Routes() []*Route {
	out := make([]*Route, 0, len(a.routes))
	for _, r := range a.routes {
		out = append(out, r)
	}
	SortRoutes(out)
	return out
}

// Clear removes every advertised route, retaining the allocated map.
func (a *AdjRIBOut) Clear() { clear(a.routes) }

// Clone deep-copies the Adj-RIB-Out.
func (a *AdjRIBOut) Clone() *AdjRIBOut {
	out := NewAdjRIBOut()
	for p, r := range a.routes {
		out.routes[p] = r.Clone()
	}
	return out
}

// prefixEntry holds all candidate routes for one prefix plus the current
// selection.
type prefixEntry struct {
	prefix bgp.Prefix
	// candidates is keyed by the source: peer name, or "" for the locally
	// originated route.
	candidates map[string]*Route
	best       *Route
}

// LocRIB is the local RIB: for every prefix, the candidate routes that passed
// import policy and the best route chosen by the decision process.
type LocRIB struct {
	entries map[bgp.Prefix]*prefixEntry
	// order holds the values of entries in canonical prefix order. Only the
	// methods that create or delete an entry maintain it; readers walk it
	// without sorting and without writing, so concurrent readers stay
	// race-free.
	order    []*prefixEntry
	decision DecisionPolicy
	// age is the arrival-stamp counter behind Route.Age: it advances once per
	// newly installed candidate, in event order, so "older" is a deterministic,
	// restorable property of the candidate set (see DecisionOldestFirst).
	age uint64
}

// NewLocRIB returns an empty Loc-RIB using the default (BIRD-order) decision
// policy.
func NewLocRIB() *LocRIB {
	return NewLocRIBFor(DecisionRouterIDFirst)
}

// NewLocRIBFor returns an empty Loc-RIB whose decision process breaks final
// ties according to the given policy. Heterogeneous router backends differ
// exactly here.
func NewLocRIBFor(pol DecisionPolicy) *LocRIB {
	return &LocRIB{entries: make(map[bgp.Prefix]*prefixEntry), decision: pol}
}

// Decision returns the Loc-RIB's decision policy.
func (l *LocRIB) Decision() DecisionPolicy { return l.decision }

// BestChange describes the effect of an update or withdrawal on the best
// route of a prefix.
type BestChange struct {
	Prefix  bgp.Prefix
	Old     *Route
	New     *Route
	Changed bool
}

// Update installs (or replaces) a candidate route and re-runs the decision
// process for its prefix. It returns the resulting best-route change.
//
// Unstamped routes (Age zero) receive an arrival stamp: a fresh counter value
// for a new (prefix, peer) candidate, or the replaced candidate's stamp when
// the peer refreshes an existing one — a refresh does not make a path young
// again, matching the stability intent of the route-age tie-break.
func (l *LocRIB) Update(m *concolic.Machine, r *Route) BestChange {
	e := l.entry(r.Prefix)
	if r.Age == 0 {
		if prev := e.candidates[r.Peer]; prev != nil && prev.Age != 0 {
			r.Age = prev.Age
		} else {
			l.age++
			r.Age = l.age
		}
	} else if r.Age > l.age {
		l.age = r.Age
	}
	e.candidates[r.Peer] = r
	return l.reselect(m, r.Prefix, e)
}

// Withdraw removes the candidate learned from the given source (peer name or
// "" for local) and re-runs the decision process.
func (l *LocRIB) Withdraw(m *concolic.Machine, p bgp.Prefix, source string) BestChange {
	e := l.entries[p]
	if e == nil {
		return BestChange{Prefix: p}
	}
	if _, ok := e.candidates[source]; !ok {
		return BestChange{Prefix: p, Old: e.best, New: e.best}
	}
	delete(e.candidates, source)
	change := l.reselect(m, p, e)
	if len(e.candidates) == 0 {
		delete(l.entries, p)
		i := l.search(p)
		l.order = slices.Delete(l.order, i, i+1)
	}
	return change
}

// entry returns the entry for the prefix, creating it (and inserting the
// prefix into the ordered index) when absent.
func (l *LocRIB) entry(p bgp.Prefix) *prefixEntry {
	if e := l.entries[p]; e != nil {
		return e
	}
	e := &prefixEntry{prefix: p, candidates: make(map[string]*Route)}
	l.entries[p] = e
	i := l.search(p)
	l.order = append(l.order, nil)
	copy(l.order[i+1:], l.order[i:])
	l.order[i] = e
	return e
}

// search returns the position of p in the ordered index, or where it would
// be inserted. Appending in canonical order (the checkpoint restore path) is
// the common case and costs one comparison.
func (l *LocRIB) search(p bgp.Prefix) int {
	n := len(l.order)
	if n == 0 || l.order[n-1].prefix.Less(p) {
		return n
	}
	return sort.Search(n, func(i int) bool { return !l.order[i].prefix.Less(p) })
}

func (l *LocRIB) reselect(m *concolic.Machine, p bgp.Prefix, e *prefixEntry) BestChange {
	old := e.best
	// Deterministic candidate order keeps exploration reproducible.
	sources := make([]string, 0, len(e.candidates))
	for s := range e.candidates {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	candidates := make([]*Route, 0, len(sources))
	for _, s := range sources {
		candidates = append(candidates, e.candidates[s])
	}
	e.best = SelectBestWith(m, candidates, l.decision)
	changed := !sameRoute(old, e.best)
	return BestChange{Prefix: p, Old: old, New: e.best, Changed: changed}
}

func sameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Prefix != b.Prefix || a.Peer != b.Peer || a.Local != b.Local {
		return false
	}
	// Attribute changes on the same source are still a change.
	if a.Attrs.EffectiveLocalPref() != b.Attrs.EffectiveLocalPref() ||
		a.Attrs.EffectiveMED() != b.Attrs.EffectiveMED() ||
		a.Attrs.PathLen() != b.Attrs.PathLen() ||
		a.Attrs.NextHop != b.Attrs.NextHop {
		return false
	}
	return true
}

// InsertCandidate stores a candidate route without re-running the decision
// process. It is the bulk-load path used when restoring a RIB from a
// checkpoint: insert every candidate, then call ReselectAll once. Using it
// without a subsequent ReselectAll leaves the best-route selections stale.
// Restored arrival stamps advance the counter, so stamps handed out after a
// restore continue the checkpointed sequence instead of colliding with it.
func (l *LocRIB) InsertCandidate(r *Route) {
	e := l.entry(r.Prefix)
	if r.Age > l.age {
		l.age = r.Age
	}
	e.candidates[r.Peer] = r
}

// ReselectAll re-runs the decision process for every prefix. The selection is
// a deterministic function of the candidate set, so the result is identical
// to having run Update once per candidate, at a fraction of the cost.
func (l *LocRIB) ReselectAll() {
	for _, e := range l.order {
		l.reselect(nil, e.prefix, e)
	}
}

// Best returns the selected route for the prefix, or nil.
func (l *LocRIB) Best(p bgp.Prefix) *Route {
	if e := l.entries[p]; e != nil {
		return e.best
	}
	return nil
}

// Candidates returns all candidate routes for the prefix in deterministic
// order.
func (l *LocRIB) Candidates(p bgp.Prefix) []*Route {
	e := l.entries[p]
	if e == nil {
		return nil
	}
	out := make([]*Route, 0, len(e.candidates))
	for _, r := range e.candidates {
		out = append(out, r)
	}
	SortRoutes(out)
	return out
}

// Prefixes returns all prefixes with at least one candidate, in canonical
// order. The slice is a copy the caller may keep or modify.
func (l *LocRIB) Prefixes() []bgp.Prefix {
	out := make([]bgp.Prefix, len(l.order))
	for i, e := range l.order {
		out[i] = e.prefix
	}
	return out
}

// BestRoutes returns the selected route for every prefix, in canonical order,
// or nil when no prefix has a selection.
func (l *LocRIB) BestRoutes() []*Route {
	var out []*Route
	for i, e := range l.order {
		if b := e.best; b != nil {
			if out == nil {
				out = make([]*Route, 0, len(l.order)-i)
			}
			out = append(out, b)
		}
	}
	return out
}

// Clear removes every entry, retaining the allocated top-level map. The
// arrival-stamp counter rewinds with the content, so a cleared-and-refilled
// RIB is indistinguishable from a cold-built one.
func (l *LocRIB) Clear() {
	clear(l.entries)
	clear(l.order)
	l.order = l.order[:0]
	l.age = 0
}

// Len returns the number of prefixes in the Loc-RIB.
func (l *LocRIB) Len() int { return len(l.entries) }

// Clone deep-copies the Loc-RIB, including candidate sets, selections and the
// decision policy.
func (l *LocRIB) Clone() *LocRIB {
	out := NewLocRIBFor(l.decision)
	out.age = l.age
	out.order = make([]*prefixEntry, len(l.order))
	for i, e := range l.order {
		ne := &prefixEntry{prefix: e.prefix, candidates: make(map[string]*Route, len(e.candidates))}
		for s, r := range e.candidates {
			c := r.Clone()
			ne.candidates[s] = c
			if e.best != nil && e.best.Peer == s && e.best.Local == r.Local {
				ne.best = c
			}
		}
		out.entries[e.prefix] = ne
		out.order[i] = ne
	}
	return out
}
