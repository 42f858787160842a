package obgpd

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
)

// Checkpoint is a lightweight checkpoint of one obgpd router. Like frr it
// carries the whole configuration as one ConfigText blob in its own
// dialect (dialect.go); RIB contents, sessions and the shared counters use
// the record forms from package node, and the obgpd-only process-split
// counters travel alongside them.
type Checkpoint struct {
	Name       string
	ConfigText string

	Sessions []node.SessionRecord
	AdjIn    node.PeerRouteMap
	LocRIB   []node.RouteRecord
	AdjOut   node.PeerRouteMap

	Stats     node.RouterStats
	Engine    EngineStats
	Events    []node.EventRecord
	Panicked  bool
	LastPanic string
	Started   bool

	// cfg keeps the in-process configuration so a same-process restore does
	// not re-parse ConfigText. Unexported: a checkpoint that crossed a
	// process boundary restores from the dialect text.
	cfg *node.Config
}

// NodeName implements node.Checkpoint.
func (cp *Checkpoint) NodeName() string { return cp.Name }

// Implementation implements node.Checkpoint.
func (cp *Checkpoint) Implementation() string { return Implementation }

// TakeCheckpoint implements node.Router.
func (r *Router) TakeCheckpoint() node.Checkpoint { return r.Checkpoint() }

// Checkpoint captures the router's current state.
func (r *Router) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Name:       r.cfg.Name,
		ConfigText: Render(r.cfg),
		AdjIn:      make(map[string][]node.RouteRecord),
		AdjOut:     make(map[string][]node.RouteRecord),
		Stats:      r.stats,
		Engine:     r.engine,
		Panicked:   r.panicked,
		LastPanic:  r.lastPanic,
		Started:    r.started,
		cfg:        r.cfg,
	}
	for _, name := range r.se.order {
		s := r.se.sessions[name]
		cp.Sessions = append(cp.Sessions, node.SessionRecord{
			Peer:                  s.neighbor,
			PeerAS:                uint32(s.remoteAS),
			State:                 int(s.state),
			PeerRouterID:          uint32(s.routerID),
			DownCount:             s.downs,
			NotificationsSent:     s.notifTx,
			NotificationsReceived: s.notifRx,
		})
		for _, route := range r.rde.adjIn[name].Routes() {
			cp.AdjIn[name] = append(cp.AdjIn[name], node.RecordFromRoute(route))
		}
		for _, route := range r.rde.adjOut[name].Routes() {
			cp.AdjOut[name] = append(cp.AdjOut[name], node.RecordFromRoute(route))
		}
	}
	for _, pfx := range r.rde.locRIB.Prefixes() {
		for _, cand := range r.rde.locRIB.Candidates(pfx) {
			cp.LocRIB = append(cp.LocRIB, node.RecordFromRoute(cand))
		}
	}
	for _, ev := range r.events {
		cp.Events = append(cp.Events, node.EventRecord{
			AtNanos: int64(ev.At),
			Prefix:  ev.Prefix.String(),
			OldVia:  ev.OldVia,
			NewVia:  ev.NewVia,
		})
	}
	return cp
}

// Image is the immutable, shareable part of a restored obgpd router: its
// validated configuration. Built once per snapshot and shared by clones.
type Image struct {
	cfg *node.Config
}

// NewImage validates the configuration once and freezes it into an image.
func NewImage(cfg *node.Config) (*Image, error) {
	cfg = cfg.Clone()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Image{cfg: cfg}, nil
}

// ImageOf builds the image for a checkpoint: the in-process configuration
// when the checkpoint never left the process, otherwise the configuration
// is re-parsed from the dialect text — once, instead of once per restore.
func ImageOf(cp *Checkpoint) (*Image, error) {
	cfg := cp.cfg
	if cfg == nil {
		parsed, err := ParseConfig(cp.ConfigText)
		if err != nil {
			return nil, fmt.Errorf("obgpd: restore %s: %w", cp.Name, err)
		}
		cfg = parsed
	}
	return NewImage(cfg)
}

// Name implements node.Image.
func (im *Image) Name() string { return im.cfg.Name }

// Implementation implements node.Image.
func (im *Image) Implementation() string { return Implementation }

// Config returns the image's frozen configuration. Callers must not
// mutate it.
func (im *Image) Config() *node.Config { return im.cfg }

// prefixGroup holds the decoded Loc-RIB candidates of one prefix — the
// unit obgpd's restore path clones at. Grouping by prefix mirrors how the
// RDE thinks about its table (per-prefix candidate sets), where frr spans
// a flat route array and bird instantiates a slab template.
type prefixGroup struct {
	prefix bgp.Prefix
	routes []*rib.Route
}

// neighborGroup holds one neighbor's decoded Adj-RIB halves.
type neighborGroup struct {
	neighbor string
	in, out  []*rib.Route
}

// State is the decoded, restore-ready mutable state of one obgpd
// checkpoint: Loc-RIB candidates grouped per prefix, Adj-RIBs grouped per
// neighbor, each route cloned on instantiation. A State is immutable
// after DecodeState and safe to share across clones.
type State struct {
	// id is unique per decode and never zero; routers remember the id of
	// the State they were last rewound to.
	id        uint64
	sessions  []node.SessionRecord
	locRIB    []prefixGroup
	neighbors []neighborGroup
	stats     node.RouterStats
	engine    EngineStats
	events    []node.RouteEvent
	panicked  bool
	lastPanic string
	started   bool
}

// stateIDs numbers decoded States.
var stateIDs atomic.Uint64

// DecodeState converts a checkpoint's serializable records into
// restore-ready form.
func DecodeState(cp *Checkpoint) (*State, error) {
	st := &State{
		id:        stateIDs.Add(1),
		sessions:  append([]node.SessionRecord(nil), cp.Sessions...),
		stats:     cp.Stats,
		engine:    cp.Engine,
		panicked:  cp.Panicked,
		lastPanic: cp.LastPanic,
		started:   cp.Started,
	}
	decode := func(recs []node.RouteRecord) ([]*rib.Route, error) {
		var out []*rib.Route
		for _, rec := range recs {
			route, err := rec.Route()
			if err != nil {
				return nil, fmt.Errorf("obgpd: restore %s: %w", cp.Name, err)
			}
			out = append(out, route)
		}
		return out, nil
	}
	// Checkpoint LocRIB records are written prefix by prefix in canonical
	// order; rebuild those per-prefix groups.
	locRIB, err := decode(cp.LocRIB)
	if err != nil {
		return nil, err
	}
	for _, route := range locRIB {
		if n := len(st.locRIB); n > 0 && st.locRIB[n-1].prefix == route.Prefix {
			st.locRIB[n-1].routes = append(st.locRIB[n-1].routes, route)
			continue
		}
		st.locRIB = append(st.locRIB, prefixGroup{prefix: route.Prefix, routes: []*rib.Route{route}})
	}
	// Session order is the configuration order, which is also how the maps
	// were filled; iterate the session records to keep decoding stable.
	for _, sr := range cp.Sessions {
		in, err := decode(cp.AdjIn[sr.Peer])
		if err != nil {
			return nil, err
		}
		out, err := decode(cp.AdjOut[sr.Peer])
		if err != nil {
			return nil, err
		}
		st.neighbors = append(st.neighbors, neighborGroup{neighbor: sr.Peer, in: in, out: out})
	}
	for _, ev := range cp.Events {
		pfx, err := bgp.ParsePrefix(ev.Prefix)
		if err != nil {
			return nil, fmt.Errorf("obgpd: restore %s: %w", cp.Name, err)
		}
		st.events = append(st.events, node.RouteEvent{
			At:     time.Duration(ev.AtNanos),
			Prefix: pfx,
			OldVia: ev.OldVia,
			NewVia: ev.NewVia,
		})
	}
	return st, nil
}

// Restore builds a fresh router on the image and applies the state to it.
func (im *Image) Restore(st *State) (*Router, error) {
	r := newOn(im.cfg)
	if err := r.applyState(im, st); err != nil {
		return nil, err
	}
	return r, nil
}

// Restore builds a fresh Router from a checkpoint (the cold path; see
// ImageOf/DecodeState for the shared-decode path).
func Restore(cp *Checkpoint) (*Router, error) {
	im, err := ImageOf(cp)
	if err != nil {
		return nil, err
	}
	st, err := DecodeState(cp)
	if err != nil {
		return nil, err
	}
	return im.Restore(st)
}

// ResetTo implements node.Router: it returns the router to the snapshot
// described by (image, state) in place — the pooled-clone hot path. A
// router that no handler has touched since it was last rewound to this same
// state on this same image only has its armed exploration and hook cleared.
func (r *Router) ResetTo(nim node.Image, nst node.State) error {
	im, ok := nim.(*Image)
	if !ok {
		return fmt.Errorf("obgpd: reset %s: image is %T, not an obgpd image", r.cfg.Name, nim)
	}
	st, ok := nst.(*State)
	if !ok {
		return fmt.Errorf("obgpd: reset %s: state is %T, not an obgpd state", r.cfg.Name, nst)
	}
	r.exploreMachine, r.explorePeer, r.explorePending = nil, "", false
	r.activeMachine = nil
	r.hook = nil
	if !r.dirty && r.applied == st.id && r.cfg == im.cfg {
		return nil
	}
	return r.applyState(im, st)
}

// applyState overwrites the router's mutable state with a fresh
// instantiation of the decoded state. Every route is deep-copied per
// group, so concurrent clones sharing one State never alias mutable
// attributes. On success the router is clean and holds st.
func (r *Router) applyState(im *Image, st *State) error {
	r.applied = 0
	r.cfg = im.cfg
	r.se = sessionEngine{sessions: make(map[string]*session, len(im.cfg.Neighbors))}
	r.rde = rde{
		adjIn:  make(map[string]*rib.AdjRIBIn, len(im.cfg.Neighbors)),
		adjOut: make(map[string]*rib.AdjRIBOut, len(im.cfg.Neighbors)),
		locRIB: rib.NewLocRIBFor(Decision),
	}
	for _, n := range im.cfg.Neighbors {
		r.addNeighbor(n)
	}
	for _, sr := range st.sessions {
		s := r.se.sessions[sr.Peer]
		if s == nil {
			return fmt.Errorf("obgpd: restore %s: unknown session %s", im.cfg.Name, sr.Peer)
		}
		s.state = sessionState(sr.State)
		s.routerID = bgp.RouterID(sr.PeerRouterID)
		s.downs = sr.DownCount
		s.notifTx = sr.NotificationsSent
		s.notifRx = sr.NotificationsReceived
	}
	for _, g := range st.locRIB {
		for _, route := range g.routes {
			r.rde.locRIB.InsertCandidate(route.Clone())
		}
	}
	r.rde.locRIB.ReselectAll()
	for _, g := range st.neighbors {
		if r.se.sessions[g.neighbor] == nil {
			return fmt.Errorf("obgpd: restore %s: unknown session %s", im.cfg.Name, g.neighbor)
		}
		for _, route := range g.in {
			r.rde.adjIn[g.neighbor].Set(route.Clone())
		}
		for _, route := range g.out {
			r.rde.adjOut[g.neighbor].Set(route.Clone())
		}
	}
	r.stats = st.stats
	r.engine = st.engine
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
