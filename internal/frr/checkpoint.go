package frr

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/node"
)

// Checkpoint is a lightweight checkpoint of one frr router. Unlike the bird
// backend — which serializes its configuration as discrete fields plus
// BIRD-filter policy text — an frr checkpoint carries the whole
// configuration as one ConfigText blob in the frr dialect (dialect.go),
// exactly as a real bgpd would ship its vtysh running-config. RIB contents,
// sessions and counters use the shared record forms from package node.
type Checkpoint struct {
	Name       string
	ConfigText string

	Sessions []node.SessionRecord
	AdjIn    node.PeerRouteMap
	LocRIB   []node.RouteRecord
	AdjOut   node.PeerRouteMap

	Stats     node.RouterStats
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
		Panicked:   r.panicked,
		LastPanic:  r.lastPanic,
		Started:    r.started,
		cfg:        r.cfg,
	}
	for _, name := range r.order {
		p := r.peers[name]
		cp.Sessions = append(cp.Sessions, node.SessionRecord{
			Peer:                  p.name,
			PeerAS:                uint32(p.as),
			State:                 int(p.state),
			PeerRouterID:          uint32(p.routerID),
			DownCount:             p.downCount,
			NotificationsSent:     p.notifsSent,
			NotificationsReceived: p.notifsRecvd,
		})
		for _, route := range p.adjIn.Routes() {
			cp.AdjIn[name] = append(cp.AdjIn[name], node.RecordFromRoute(route))
		}
		for _, route := range p.adjOut.Routes() {
			cp.AdjOut[name] = append(cp.AdjOut[name], node.RecordFromRoute(route))
		}
	}
	for _, pfx := range r.locRIB.Prefixes() {
		for _, cand := range r.locRIB.Candidates(pfx) {
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

// Image is the immutable, shareable part of a restored frr router: its
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
// when the checkpoint never left the process, otherwise the configuration is
// re-parsed from the dialect text — once, instead of once per restore.
func ImageOf(cp *Checkpoint) (*Image, error) {
	cfg := cp.cfg
	if cfg == nil {
		parsed, err := ParseConfig(cp.ConfigText)
		if err != nil {
			return nil, fmt.Errorf("frr: restore %s: %w", cp.Name, err)
		}
		cfg = parsed
	}
	return NewImage(cfg)
}

// Name implements node.Image.
func (im *Image) Name() string { return im.cfg.Name }

// Implementation implements node.Image.
func (im *Image) Implementation() string { return Implementation }

// Config returns the image's frozen configuration. Callers must not mutate
// it.
func (im *Image) Config() *node.Config { return im.cfg }

// routeSpan names the peer a run of decoded routes belongs to.
type routeSpan struct {
	peer     string
	from, to int
}

// State is the decoded, restore-ready mutable state of one frr checkpoint.
// Where bird flattens routes into a slab template, frr keeps the decoded
// routes and clones each on instantiation — a simpler model with the same
// observable behavior (the cross-backend golden tests hold both to it).
// A State is immutable after DecodeState and safe to share across clones.
type State struct {
	// id is unique per decode and never zero; routers remember the id of
	// the State they were last rewound to.
	id        uint64
	sessions  []node.SessionRecord
	routes    []*rib.Route
	locRIB    routeSpan
	adjIn     []routeSpan
	adjOut    []routeSpan
	stats     node.RouterStats
	events    []node.RouteEvent
	panicked  bool
	lastPanic string
	started   bool
}

// stateIDs numbers decoded States.
var stateIDs atomic.Uint64

// DecodeState converts a checkpoint's serializable records into restore-ready
// form.
func DecodeState(cp *Checkpoint) (*State, error) {
	st := &State{
		id:        stateIDs.Add(1),
		sessions:  append([]node.SessionRecord(nil), cp.Sessions...),
		stats:     cp.Stats,
		panicked:  cp.Panicked,
		lastPanic: cp.LastPanic,
		started:   cp.Started,
	}
	decode := func(peer string, recs []node.RouteRecord) (routeSpan, error) {
		sp := routeSpan{peer: peer, from: len(st.routes)}
		for _, rec := range recs {
			route, err := rec.Route()
			if err != nil {
				return sp, fmt.Errorf("frr: restore %s: %w", cp.Name, err)
			}
			st.routes = append(st.routes, route)
		}
		sp.to = len(st.routes)
		return sp, nil
	}
	var err error
	if st.locRIB, err = decode("", cp.LocRIB); err != nil {
		return nil, err
	}
	// Session order is the configuration order, which is also how the maps
	// were filled; iterate the session records to keep decoding stable.
	for _, sr := range cp.Sessions {
		sp, err := decode(sr.Peer, cp.AdjIn[sr.Peer])
		if err != nil {
			return nil, err
		}
		st.adjIn = append(st.adjIn, sp)
		if sp, err = decode(sr.Peer, cp.AdjOut[sr.Peer]); err != nil {
			return nil, err
		}
		st.adjOut = append(st.adjOut, sp)
	}
	for _, ev := range cp.Events {
		pfx, err := bgp.ParsePrefix(ev.Prefix)
		if err != nil {
			return nil, fmt.Errorf("frr: restore %s: %w", cp.Name, err)
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
		return fmt.Errorf("frr: reset %s: image is %T, not an frr image", r.cfg.Name, nim)
	}
	st, ok := nst.(*State)
	if !ok {
		return fmt.Errorf("frr: reset %s: state is %T, not an frr state", r.cfg.Name, nst)
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
// instantiation of the decoded state. Every route is deep-copied, so
// concurrent clones sharing one State never alias mutable attributes. On
// success the router is clean and holds st.
func (r *Router) applyState(im *Image, st *State) error {
	r.applied = 0
	r.cfg = im.cfg
	r.peers = make(map[string]*peer, len(im.cfg.Neighbors))
	r.order = r.order[:0]
	for _, n := range im.cfg.Neighbors {
		r.addPeer(n)
	}
	for _, sr := range st.sessions {
		p := r.peers[sr.Peer]
		if p == nil {
			return fmt.Errorf("frr: restore %s: unknown session %s", im.cfg.Name, sr.Peer)
		}
		p.state = peerState(sr.State)
		p.routerID = bgp.RouterID(sr.PeerRouterID)
		p.downCount = sr.DownCount
		p.notifsSent = sr.NotificationsSent
		p.notifsRecvd = sr.NotificationsReceived
	}
	r.locRIB = rib.NewLocRIBFor(Decision)
	for i := st.locRIB.from; i < st.locRIB.to; i++ {
		r.locRIB.InsertCandidate(st.routes[i].Clone())
	}
	r.locRIB.ReselectAll()
	fill := func(spans []routeSpan, set func(p *peer, route *rib.Route)) error {
		for _, sp := range spans {
			p := r.peers[sp.peer]
			if p == nil {
				return fmt.Errorf("frr: restore %s: unknown session %s", im.cfg.Name, sp.peer)
			}
			for i := sp.from; i < sp.to; i++ {
				set(p, st.routes[i].Clone())
			}
		}
		return nil
	}
	if err := fill(st.adjIn, func(p *peer, route *rib.Route) { p.adjIn.Set(route) }); err != nil {
		return err
	}
	if err := fill(st.adjOut, func(p *peer, route *rib.Route) { p.adjOut.Set(route) }); err != nil {
		return err
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
