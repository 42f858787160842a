package bird

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
)

// Image is the immutable, shareable part of a router: its validated
// configuration with parsed policies and the per-neighbor session templates
// derived from it. An image is built once (per campaign, typically) and then
// shared by every clone of the node — cloning applies mutable State onto the
// image instead of re-parsing configuration text and re-deriving policies.
//
// Images are safe for concurrent use: nothing in them is mutated after
// construction, and routers built from the same image share the underlying
// *Config by pointer.
type Image struct {
	cfg *Config
}

// NewImage validates the configuration once and freezes it into an image.
// The configuration is deep-copied, so later caller mutations do not leak
// into routers built from the image.
func NewImage(cfg *Config) (*Image, error) {
	cfg = cfg.Clone()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Image{cfg: cfg}, nil
}

// ImageOf builds the image for a checkpoint: the in-process configuration
// when the checkpoint never left the process, otherwise the configuration is
// reconstructed from its serialized textual form (policies re-parsed) — once,
// instead of once per restore.
func ImageOf(cp *Checkpoint) (*Image, error) {
	cfg := cp.cfg
	if cfg == nil {
		policies, err := policy.ParsePolicies(cp.PoliciesText)
		if err != nil {
			return nil, fmt.Errorf("bird: restore %s: %w", cp.Name, err)
		}
		cfg = &Config{
			Name:              cp.Name,
			AS:                bgp.ASN(cp.AS),
			RouterID:          bgp.RouterID(cp.RouterID),
			Neighbors:         cp.Neighbors,
			Policies:          policies,
			HoldTime:          cp.HoldTime,
			KeepaliveInterval: cp.KeepaliveInterval,
			ConnectRetry:      cp.ConnectRetry,
		}
		for _, ps := range cp.Networks {
			p, err := bgp.ParsePrefix(ps)
			if err != nil {
				return nil, fmt.Errorf("bird: restore %s: %w", cp.Name, err)
			}
			cfg.Networks = append(cfg.Networks, p)
		}
	}
	return NewImage(cfg)
}

// Config returns the image's frozen configuration. Callers must not mutate
// it.
func (im *Image) Config() *Config { return im.cfg }

// Name returns the imaged router's name.
func (im *Image) Name() string { return im.cfg.Name }

// Implementation implements node.Image.
func (im *Image) Implementation() string { return Implementation }

// State is the decoded, restore-ready mutable state of one checkpoint: the
// session records, RIB routes and counters with all string parsing and
// attribute reconstruction already done. The routes are kept as a flat slab
// template: one instantiation stamps out deep copies of every route with a
// handful of bulk allocations, which is far cheaper than re-parsing
// RouteRecords (and than cloning routes one by one).
//
// A State is immutable after DecodeState and safe to share across concurrent
// restores.
type State struct {
	// id is unique per decode and never zero; routers remember the id of
	// the State they were last rewound to.
	id        uint64
	sessions  []SessionRecord
	tmpl      routeTemplate
	locRIB    span
	adjIn     []peerSpan
	adjOut    []peerSpan
	stats     RouterStats
	events    []RouteEvent
	panicked  bool
	lastPanic string
	started   bool
}

// span is a half-open index range into the template's flat route array.
type span struct{ from, to int }

// peerSpan names the peer a contiguous run of template routes belongs to.
type peerSpan struct {
	peer string
	span span
}

// attrLayout records where one route's attribute slices and optional values
// live inside the template slabs, so instantiation can re-point the copied
// attributes into the fresh slabs.
type attrLayout struct {
	asPathOff, asPathLen int
	asSetOff, asSetLen   int
	commOff, commLen     int
	medIdx, lpIdx        int // -1 when absent
}

// routeTemplate is the slab form of a checkpoint's routes: parallel route and
// attribute arrays plus shared backing slabs for every attribute slice. One
// instantiation performs eight bulk allocations regardless of route count.
type routeTemplate struct {
	routes []rib.Route
	attrs  []bgp.PathAttributes
	layout []attrLayout
	asns   []bgp.ASN
	comms  []bgp.Community
	vals   []uint32
}

// add flattens one route into the template. The route's attribute slices are
// appended to the shared slabs; the stored attribute value keeps the original
// slice headers only as documentation — instantiate rebuilds them.
func (tm *routeTemplate) add(r *rib.Route) {
	a := r.Attrs
	la := attrLayout{
		asPathOff: len(tm.asns), asPathLen: len(a.ASPath),
		medIdx: -1, lpIdx: -1,
	}
	tm.asns = append(tm.asns, a.ASPath...)
	la.asSetOff, la.asSetLen = len(tm.asns), len(a.ASSet)
	tm.asns = append(tm.asns, a.ASSet...)
	la.commOff, la.commLen = len(tm.comms), len(a.Communities)
	tm.comms = append(tm.comms, a.Communities...)
	if a.MED != nil {
		la.medIdx = len(tm.vals)
		tm.vals = append(tm.vals, *a.MED)
	}
	if a.LocalPref != nil {
		la.lpIdx = len(tm.vals)
		tm.vals = append(tm.vals, *a.LocalPref)
	}
	tm.routes = append(tm.routes, *r)
	tm.attrs = append(tm.attrs, *a)
	tm.layout = append(tm.layout, la)
}

// instantiate stamps out a fresh deep copy of every template route. The
// copies share nothing with the template or with each other's attribute
// storage (slice capacities are pinned, so appends reallocate rather than
// bleed into a neighboring route's region).
func (tm *routeTemplate) instantiate() []rib.Route {
	routes := make([]rib.Route, len(tm.routes))
	attrs := make([]bgp.PathAttributes, len(tm.attrs))
	asns := make([]bgp.ASN, len(tm.asns))
	comms := make([]bgp.Community, len(tm.comms))
	vals := make([]uint32, len(tm.vals))
	copy(routes, tm.routes)
	copy(attrs, tm.attrs)
	copy(asns, tm.asns)
	copy(comms, tm.comms)
	copy(vals, tm.vals)
	for i := range routes {
		la := &tm.layout[i]
		a := &attrs[i]
		a.ASPath = nil
		a.ASSet = nil
		a.Communities = nil
		a.MED = nil
		a.LocalPref = nil
		if la.asPathLen > 0 {
			end := la.asPathOff + la.asPathLen
			a.ASPath = asns[la.asPathOff:end:end]
		}
		if la.asSetLen > 0 {
			end := la.asSetOff + la.asSetLen
			a.ASSet = asns[la.asSetOff:end:end]
		}
		if la.commLen > 0 {
			end := la.commOff + la.commLen
			a.Communities = comms[la.commOff:end:end]
		}
		if la.medIdx >= 0 {
			a.MED = &vals[la.medIdx]
		}
		if la.lpIdx >= 0 {
			a.LocalPref = &vals[la.lpIdx]
		}
		routes[i].Attrs = a
	}
	return routes
}

// stateIDs numbers decoded States.
var stateIDs atomic.Uint64

// DecodeState converts a checkpoint's serializable records into restore-ready
// slab form.
func DecodeState(cp *Checkpoint) (*State, error) {
	st := &State{
		id:        stateIDs.Add(1),
		sessions:  append([]SessionRecord(nil), cp.Sessions...),
		stats:     cp.Stats,
		panicked:  cp.Panicked,
		lastPanic: cp.LastPanic,
		started:   cp.Started,
	}
	addRecords := func(recs []RouteRecord) (span, error) {
		from := len(st.tmpl.routes)
		for _, rec := range recs {
			route, err := rec.Route()
			if err != nil {
				return span{}, fmt.Errorf("bird: restore %s: %w", cp.Name, err)
			}
			st.tmpl.add(route)
		}
		return span{from: from, to: len(st.tmpl.routes)}, nil
	}
	var err error
	if st.locRIB, err = addRecords(cp.LocRIB); err != nil {
		return nil, err
	}
	for _, peer := range sortedRecordPeers(cp.AdjIn) {
		sp, err := addRecords(cp.AdjIn[peer])
		if err != nil {
			return nil, err
		}
		st.adjIn = append(st.adjIn, peerSpan{peer: peer, span: sp})
	}
	for _, peer := range sortedRecordPeers(cp.AdjOut) {
		sp, err := addRecords(cp.AdjOut[peer])
		if err != nil {
			return nil, err
		}
		st.adjOut = append(st.adjOut, peerSpan{peer: peer, span: sp})
	}
	for _, ev := range cp.Events {
		p, err := bgp.ParsePrefix(ev.Prefix)
		if err != nil {
			return nil, fmt.Errorf("bird: restore %s: %w", cp.Name, err)
		}
		st.events = append(st.events, RouteEvent{
			At:     time.Duration(ev.AtNanos),
			Prefix: p,
			OldVia: ev.OldVia,
			NewVia: ev.NewVia,
		})
	}
	return st, nil
}

func sortedRecordPeers(m map[string][]RouteRecord) []string {
	peers := make([]string, 0, len(m))
	for peer := range m {
		peers = append(peers, peer)
	}
	sort.Strings(peers)
	return peers
}

// Restore builds a fresh router on the image and applies the state to it.
// The result is behaviorally identical to Restore(checkpoint) but skips all
// config cloning, validation and record parsing.
func (im *Image) Restore(st *State) (*Router, error) {
	r := &Router{
		cfg:      im.cfg,
		sessions: make(map[string]*session, len(im.cfg.Neighbors)),
		locRIB:   rib.NewLocRIB(),
		adjIn:    make(map[string]*rib.AdjRIBIn, len(im.cfg.Neighbors)),
		adjOut:   make(map[string]*rib.AdjRIBOut, len(im.cfg.Neighbors)),
	}
	if err := r.applyState(im, st); err != nil {
		return nil, err
	}
	return r, nil
}

// ResetTo returns the router to the snapshot described by (image, state) in
// place: every piece of mutable state — sessions, RIBs, counters, events,
// crash flags, armed explorations and injected fault hooks — is overwritten.
// This is the pooled-clone hot path: resetting an existing router is
// equivalent to (and much cheaper than) restoring a fresh one from the
// checkpoint. A router that no handler has touched since it was last
// rewound to this same state on this same image only has its armed
// exploration and hook cleared. It implements node.Router, so the image and
// state arrive behind the neutral interfaces and must be this backend's own.
func (r *Router) ResetTo(nim node.Image, nst node.State) error {
	im, ok := nim.(*Image)
	if !ok {
		return fmt.Errorf("bird: reset %s: image is %T, not a bird image", r.cfg.Name, nim)
	}
	st, ok := nst.(*State)
	if !ok {
		return fmt.Errorf("bird: reset %s: state is %T, not a bird state", r.cfg.Name, nst)
	}
	r.explore = exploration{}
	r.activeMachine = nil
	r.hook = nil
	if !r.dirty && r.applied == st.id && r.cfg == im.cfg {
		return nil
	}
	r.cfg = im.cfg
	return r.applyState(im, st)
}

// applyState overwrites the router's mutable state with a fresh
// instantiation of the decoded state. Each instantiation deep-copies every
// route, so concurrent clones sharing one State never alias mutable
// attributes; existing RIB structures are cleared and reused rather than
// reallocated. On success the router is clean and holds st.
func (r *Router) applyState(im *Image, st *State) error {
	r.applied = 0
	for name := range r.sessions {
		if im.cfg.Neighbor(name) == nil {
			delete(r.sessions, name)
			delete(r.adjIn, name)
			delete(r.adjOut, name)
		}
	}
	for _, n := range im.cfg.Neighbors {
		s := r.sessions[n.Name]
		if s == nil {
			s = &session{}
			r.sessions[n.Name] = s
		}
		*s = session{
			peer:         n.Name,
			peerAS:       n.AS,
			state:        StateIdle,
			importPolicy: n.Import,
			exportPolicy: n.Export,
		}
		if in := r.adjIn[n.Name]; in != nil {
			in.Clear()
		} else {
			r.adjIn[n.Name] = rib.NewAdjRIBIn()
		}
		if out := r.adjOut[n.Name]; out != nil {
			out.Clear()
		} else {
			r.adjOut[n.Name] = rib.NewAdjRIBOut()
		}
	}
	for _, sr := range st.sessions {
		s := r.sessions[sr.Peer]
		if s == nil {
			return fmt.Errorf("bird: restore %s: unknown session %s", im.cfg.Name, sr.Peer)
		}
		s.state = SessionState(sr.State)
		s.peerRouterID = bgp.RouterID(sr.PeerRouterID)
		s.downCount = sr.DownCount
		s.notificationsSent = sr.NotificationsSent
		s.notificationsReceived = sr.NotificationsReceived
	}
	flat := st.tmpl.instantiate()
	if r.locRIB != nil {
		r.locRIB.Clear()
	} else {
		r.locRIB = rib.NewLocRIB()
	}
	for i := st.locRIB.from; i < st.locRIB.to; i++ {
		r.locRIB.InsertCandidate(&flat[i])
	}
	r.locRIB.ReselectAll()
	for _, ps := range st.adjIn {
		in := r.adjIn[ps.peer]
		if in == nil {
			return fmt.Errorf("bird: restore %s: unknown session %s", im.cfg.Name, ps.peer)
		}
		for i := ps.span.from; i < ps.span.to; i++ {
			in.Set(&flat[i])
		}
	}
	for _, ps := range st.adjOut {
		out := r.adjOut[ps.peer]
		if out == nil {
			return fmt.Errorf("bird: restore %s: unknown session %s", im.cfg.Name, ps.peer)
		}
		for i := ps.span.from; i < ps.span.to; i++ {
			out.Set(&flat[i])
		}
	}
	r.stats = st.stats
	r.panicked = st.panicked
	r.lastPanic = st.lastPanic
	r.started = st.started
	if len(st.events) > 0 {
		r.events = append(r.events[:0:0], st.events...)
	} else {
		r.events = nil
	}
	r.applied, r.dirty = st.id, false
	return nil
}
