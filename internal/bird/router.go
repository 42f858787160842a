package bird

import (
	"fmt"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// Implementation is this backend's registry tag.
const Implementation = "bird"

// init registers the backend so implementation-neutral code (cluster builds,
// snapshot stores) can construct, restore and canonically encode bird
// routers by tag.
func init() {
	node.Register(node.Backend{
		Name:     Implementation,
		Decision: rib.DecisionRouterIDFirst,
		Build: func(cfg *Config) (node.Router, error) {
			return New(cfg)
		},
		ImageOf: func(cp node.Checkpoint) (node.Image, error) {
			bcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("bird: checkpoint for %s is %T, not a bird checkpoint", cp.NodeName(), cp)
			}
			return ImageOf(bcp)
		},
		DecodeState: func(cp node.Checkpoint) (node.State, error) {
			bcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("bird: checkpoint for %s is %T, not a bird checkpoint", cp.NodeName(), cp)
			}
			return DecodeState(bcp)
		},
		Restore: func(im node.Image, st node.State) (node.Router, error) {
			bim, ok := im.(*Image)
			if !ok {
				return nil, fmt.Errorf("bird: image for %s is %T, not a bird image", im.Name(), im)
			}
			bst, ok := st.(*State)
			if !ok {
				return nil, fmt.Errorf("bird: restore %s: state is %T, not a bird state", im.Name(), st)
			}
			return bim.Restore(bst)
		},
		EncodeCanonical: func(cp node.Checkpoint) ([]byte, error) {
			bcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("bird: checkpoint for %s is %T, not a bird checkpoint", cp.NodeName(), cp)
			}
			return encodeCanonical(bcp), nil
		},
		DecodeCanonical: func(payload []byte) (node.Checkpoint, error) {
			return decodeCanonical(payload)
		},
	})
}

// UpdateHook is the shared hook type through which the faults package injects
// programming errors into any backend's UPDATE handler.
type UpdateHook = node.UpdateHook

// RouterStats counts router activity. All counters are cumulative since the
// router was created (and survive checkpointing).
type RouterStats = node.RouterStats

// RouteEvent records one change of the best route for a prefix. The
// oscillation (policy conflict) checker consumes the sequence of events.
type RouteEvent = node.RouteEvent

// exploration carries the armed symbolic-input request.
type exploration struct {
	machine *concolic.Machine
	from    string
	pending bool
}

// Router is the emulated BGP router. It implements netem.Node so it can run
// both on the virtual-time emulator and on the TCP transport.
type Router struct {
	cfg      *Config
	sessions map[string]*session
	locRIB   *rib.LocRIB
	adjIn    map[string]*rib.AdjRIBIn
	adjOut   map[string]*rib.AdjRIBOut

	explore exploration
	// activeMachine is the concolic machine of the UPDATE currently being
	// processed (nil outside symbolic handling). Injected fault hooks use it
	// so that the branch conditions of the buggy code are recorded and can be
	// negated by the explorer, exactly as instrumented BIRD code would be.
	activeMachine *concolic.Machine
	hook          UpdateHook

	stats     RouterStats
	events    []RouteEvent
	panicked  bool
	lastPanic string
	started   bool

	// applied is the id of the State the router was last rewound to; an
	// id rather than the pointer, so a cold clone does not keep its
	// privately decoded State alive. dirty records that the router's state
	// may have changed since: Start, HandleMessage and HandleTimer set it,
	// as does CheckInvariants when it changes the failure counter. ResetTo
	// skips the rewind of a clean router asked for the State it holds.
	applied uint64
	dirty   bool
}

// New builds a router from its configuration and installs the locally
// originated routes into the Loc-RIB.
func New(cfg *Config) (*Router, error) {
	cfg = cfg.Clone()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		sessions: make(map[string]*session),
		locRIB:   rib.NewLocRIB(),
		adjIn:    make(map[string]*rib.AdjRIBIn),
		adjOut:   make(map[string]*rib.AdjRIBOut),
	}
	for _, n := range cfg.Neighbors {
		r.sessions[n.Name] = &session{
			peer:         n.Name,
			peerAS:       n.AS,
			state:        StateIdle,
			importPolicy: n.Import,
			exportPolicy: n.Export,
		}
		r.adjIn[n.Name] = rib.NewAdjRIBIn()
		r.adjOut[n.Name] = rib.NewAdjRIBOut()
	}
	r.originateNetworks()
	return r, nil
}

// MustNew is New for static configurations in tests and examples.
func MustNew(cfg *Config) *Router {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func (r *Router) originateNetworks() {
	for _, p := range r.cfg.Networks {
		attrs := &bgp.PathAttributes{
			Origin:  bgp.OriginIGP,
			NextHop: uint32(r.cfg.RouterID),
		}
		route := &rib.Route{
			Prefix: p,
			Attrs:  attrs,
			Peer:   "",
			Local:  true,
		}
		r.locRIB.Update(nil, route)
		r.stats.RoutesOriginated++
	}
}

// Interface check: bird.Router is a full node.Router backend.
var _ node.Router = (*Router)(nil)

// ID implements netem.Node.
func (r *Router) ID() netem.NodeID { return netem.NodeID(r.cfg.Name) }

// Implementation implements node.Router.
func (r *Router) Implementation() string { return Implementation }

// TakeCheckpoint implements node.Router: it is Checkpoint behind the
// implementation-neutral interface.
func (r *Router) TakeCheckpoint() node.Checkpoint { return r.Checkpoint() }

// Config returns the router's configuration.
func (r *Router) Config() *Config { return r.cfg }

// LocRIB returns the router's Loc-RIB.
func (r *Router) LocRIB() *rib.LocRIB { return r.locRIB }

// AdjIn returns the Adj-RIB-In for a peer, or nil.
func (r *Router) AdjIn(peer string) *rib.AdjRIBIn { return r.adjIn[peer] }

// AdjOut returns the Adj-RIB-Out for a peer, or nil.
func (r *Router) AdjOut(peer string) *rib.AdjRIBOut { return r.adjOut[peer] }

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() RouterStats { return r.stats }

// Events returns the best-route change log.
func (r *Router) Events() []RouteEvent { return r.events }

// Panicked reports whether the UPDATE handler crashed (directly or through an
// injected fault) and the crash reason.
func (r *Router) Panicked() (bool, string) { return r.panicked, r.lastPanic }

// Sessions returns a summary of every configured session.
func (r *Router) Sessions() []SessionInfo {
	var out []SessionInfo
	for _, n := range r.cfg.Neighbors {
		s := r.sessions[n.Name]
		out = append(out, SessionInfo{
			Peer:                  s.peer,
			PeerAS:                s.peerAS,
			State:                 s.state,
			DownCount:             s.downCount,
			NotificationsSent:     s.notificationsSent,
			NotificationsReceived: s.notificationsReceived,
		})
	}
	return out
}

// SessionState returns the FSM state of the session with the named peer.
func (r *Router) SessionState(peer string) SessionState {
	if s := r.sessions[peer]; s != nil {
		return s.state
	}
	return StateIdle
}

// SetUpdateHook installs a (possibly fault-injecting) UPDATE hook.
func (r *Router) SetUpdateHook(h UpdateHook) { r.hook = h }

// ActiveMachine returns the concolic machine of the UPDATE currently being
// handled, or nil when processing is concrete. Fault hooks call it so their
// trigger conditions are recorded as negatable branch constraints.
func (r *Router) ActiveMachine() *concolic.Machine { return r.activeMachine }

// ExploreNextUpdate arms symbolic tracing: the next UPDATE received from the
// named peer is parsed under the machine, marking its NLRI and path-attribute
// fields symbolic, and the route-selection choice for its prefixes becomes a
// symbolic decision. This is how the DiCE orchestrator turns a cloned router
// into the subject of one concolic execution.
func (r *Router) ExploreNextUpdate(m *concolic.Machine, fromPeer string) {
	r.explore = exploration{machine: m, from: fromPeer, pending: true}
}

//
// netem.Node implementation
//

// Start implements netem.Node: it brings every configured session up by
// sending OPEN.
func (r *Router) Start(env netem.Env) {
	if r.started {
		return
	}
	r.started = true
	r.dirty = true
	for _, n := range r.cfg.Neighbors {
		r.startSession(env, r.sessions[n.Name])
	}
}

func (r *Router) startSession(env netem.Env, s *session) {
	s.state = StateOpenSent
	r.send(env, s.peer, &bgp.Open{
		Version:  bgp.Version,
		AS:       r.cfg.AS,
		HoldTime: uint16(r.cfg.HoldTime / time.Second),
		RouterID: r.cfg.RouterID,
	})
	r.stats.OpensSent++
	env.SetTimer("retry/"+s.peer, r.cfg.ConnectRetry)
}

// HandleTimer implements netem.Node.
func (r *Router) HandleTimer(env netem.Env, name string) {
	r.dirty = true
	switch {
	case len(name) > 6 && name[:6] == "retry/":
		peer := name[6:]
		s := r.sessions[peer]
		if s != nil && !s.established() {
			r.startSession(env, s)
		}
	case len(name) > 10 && name[:10] == "keepalive/":
		peer := name[10:]
		s := r.sessions[peer]
		if s != nil && s.established() && r.cfg.KeepaliveInterval > 0 {
			r.send(env, peer, &bgp.Keepalive{})
			r.stats.KeepalivesSent++
			env.SetTimer(name, r.cfg.KeepaliveInterval)
		}
	}
}

// HandleMessage implements netem.Node. Handler crashes (including those
// caused by injected programming errors) are contained and recorded rather
// than taking the whole emulation down, mirroring a daemon that crashes and
// gets flagged by its supervisor.
func (r *Router) HandleMessage(env netem.Env, from netem.NodeID, payload []byte) {
	r.dirty = true
	defer func() {
		if rec := recover(); rec != nil {
			r.panicked = true
			r.lastPanic = fmt.Sprint(rec)
			r.stats.HandlerCrashes++
		}
	}()
	s := r.sessions[string(from)]
	if s == nil {
		return // message from an unconfigured neighbor: ignore
	}
	typ, body, err := bgp.ValidateHeader(payload)
	if err != nil {
		r.protocolError(env, s, err)
		return
	}
	switch typ {
	case bgp.MsgOpen:
		r.handleOpen(env, s, body)
	case bgp.MsgKeepalive:
		r.handleKeepalive(env, s)
	case bgp.MsgNotification:
		r.handleNotification(env, s, body)
	case bgp.MsgUpdate:
		if !s.established() {
			r.protocolError(env, s, &bgp.MessageError{Code: bgp.ErrFiniteStateMachine, Reason: "UPDATE outside Established"})
			return
		}
		r.handleUpdate(env, s, body)
	}
}

func (r *Router) handleOpen(env netem.Env, s *session, body []byte) {
	msg, err := bgp.Decode(append(openHeader(len(body)), body...))
	if err != nil {
		r.protocolError(env, s, err)
		return
	}
	open := msg.(*bgp.Open)
	if open.AS != s.peerAS&0xffff && open.AS != s.peerAS {
		r.protocolError(env, s, &bgp.MessageError{Code: bgp.ErrOpenMessage, Subcode: bgp.ErrSubBadPeerAS,
			Reason: fmt.Sprintf("expected AS %d, got %d", s.peerAS, open.AS)})
		return
	}
	s.peerRouterID = open.RouterID
	switch s.state {
	case StateIdle, StateOpenSent:
		// Collision handling is collapsed: reply with our OPEN if we had not
		// sent one, then confirm.
		if s.state == StateIdle {
			r.send(env, s.peer, &bgp.Open{
				Version:  bgp.Version,
				AS:       r.cfg.AS,
				HoldTime: uint16(r.cfg.HoldTime / time.Second),
				RouterID: r.cfg.RouterID,
			})
			r.stats.OpensSent++
		}
		r.send(env, s.peer, &bgp.Keepalive{})
		r.stats.KeepalivesSent++
		s.state = StateOpenConfirm
	case StateOpenConfirm, StateEstablished:
		// Duplicate OPEN: ignore.
	}
}

// openHeader rebuilds the wire header for an OPEN body so that the shared
// decoder can be reused for validation.
func openHeader(bodyLen int) []byte {
	hdr := make([]byte, bgp.HeaderLen)
	for i := 0; i < bgp.MarkerLen; i++ {
		hdr[i] = 0xff
	}
	total := bgp.HeaderLen + bodyLen
	hdr[16] = byte(total >> 8)
	hdr[17] = byte(total)
	hdr[18] = byte(bgp.MsgOpen)
	return hdr
}

func (r *Router) handleKeepalive(env netem.Env, s *session) {
	switch s.state {
	case StateOpenConfirm:
		s.state = StateEstablished
		env.CancelTimer("retry/" + s.peer)
		if r.cfg.KeepaliveInterval > 0 {
			env.SetTimer("keepalive/"+s.peer, r.cfg.KeepaliveInterval)
		}
		r.advertiseFullTable(env, s)
	case StateEstablished:
		// Refreshes the (disabled) hold timer; nothing to do.
	}
}

func (r *Router) handleNotification(env netem.Env, s *session, body []byte) {
	s.notificationsReceived++
	r.resetSession(env, s)
}

// protocolError sends a NOTIFICATION for the error and resets the session.
func (r *Router) protocolError(env netem.Env, s *session, err error) {
	r.stats.ParseErrors++
	if merr, ok := err.(*bgp.MessageError); ok {
		r.send(env, s.peer, merr.Notification())
	} else {
		r.send(env, s.peer, &bgp.Notification{Code: bgp.ErrCease})
	}
	s.notificationsSent++
	r.stats.NotificationsSent++
	r.resetSession(env, s)
}

// resetSession tears down the session: all routes learned from the peer are
// withdrawn (the "local session reset" whose system-wide consequences the
// paper calls out) and the session restarts after the retry timer.
func (r *Router) resetSession(env netem.Env, s *session) {
	if s.established() {
		r.stats.SessionResets++
	}
	s.state = StateIdle
	s.downCount++
	for _, route := range r.adjIn[s.peer].Routes() {
		r.adjIn[s.peer].Remove(route.Prefix)
		change := r.locRIB.Withdraw(nil, route.Prefix, s.peer)
		r.propagate(env, change, s.peer)
	}
	for _, route := range r.adjOut[s.peer].Routes() {
		r.adjOut[s.peer].Remove(route.Prefix)
	}
	env.SetTimer("retry/"+s.peer, r.cfg.ConnectRetry)
}

//
// UPDATE processing — the state-changing code DiCE focuses on.
//

func (r *Router) handleUpdate(env netem.Env, s *session, body []byte) {
	r.stats.UpdatesReceived++

	var m *concolic.Machine
	if r.explore.pending && r.explore.from == s.peer {
		m = r.explore.machine
		r.explore.pending = false
		r.stats.ExploredSymbolic++
	}
	r.activeMachine = m
	defer func() { r.activeMachine = nil }()

	u, err := bgp.ParseUpdateSym(m, "update", body)
	if err != nil {
		r.protocolError(env, s, err)
		return
	}

	if r.hook != nil {
		if herr := r.hook(r, s.peer, u); herr != nil {
			// The injected programming error "crashed" the handler.
			r.panicked = true
			r.lastPanic = herr.Error()
			r.stats.HandlerCrashes++
			r.stats.UpdatesHookDropped++
			return
		}
	}

	r.processWithdrawals(env, s, m, u)
	r.processAnnouncements(env, s, m, u)
}

func (r *Router) processWithdrawals(env netem.Env, s *session, m *concolic.Machine, u *bgp.Update) {
	for _, p := range u.Withdrawn {
		if !r.adjIn[s.peer].Remove(p) {
			continue
		}
		change := r.locRIB.Withdraw(m, p, s.peer)
		r.propagate(env, change, s.peer)
	}
}

func (r *Router) processAnnouncements(env netem.Env, s *session, m *concolic.Machine, u *bgp.Update) {
	if len(u.NLRI) == 0 || u.Attrs == nil {
		return
	}
	for i, p := range u.NLRI {
		attrs := u.Attrs.Clone()

		// eBGP loop prevention: a path that already contains our AS is
		// ignored.
		if attrs.HasASLoop(r.cfg.AS) {
			r.stats.ASLoopsIgnored++
			continue
		}

		route := &rib.Route{
			Prefix:       p,
			Attrs:        attrs,
			Peer:         s.peer,
			PeerAS:       s.peerAS,
			PeerRouterID: s.peerRouterID,
			EBGP:         s.peerAS != r.cfg.AS,
		}
		if m != nil && u.Sym != nil {
			sym := rib.SymFromUpdate(u.Sym)
			if i < len(u.Sym.NLRI) {
				sym.PrefixLen = u.Sym.NLRI[i].Len
				sym.PrefixAddr = u.Sym.NLRI[i].Addr
				sym.HasPrefix = true
			}
			route.Sym = sym
		}

		// LOCAL_PREF is an iBGP attribute: on eBGP sessions the received
		// value is discarded and import policy assigns a fresh one. The
		// symbolic shadow must be scrubbed with it, or exploration reasons
		// about a LOCAL_PREF the router concretely ignores and derives
		// detections no concrete replay can reproduce.
		if route.EBGP {
			route.Attrs.LocalPref = nil
			if route.Sym != nil {
				route.Sym.HasLocalPref = false
			}
		}

		// Import policy (interpreted; constraints recorded when tracing).
		if pol := r.cfg.Policies[s.importPolicy]; pol != nil || s.importPolicy != "" {
			res := pol.Apply(m, route)
			if res == policy.ResultReject {
				r.stats.ImportRejected++
				// Treat-as-withdraw for any previously accepted route.
				if r.adjIn[s.peer].Remove(p) {
					change := r.locRIB.Withdraw(m, p, s.peer)
					r.propagate(env, change, s.peer)
				}
				continue
			}
		}

		// The paper treats "is this route the locally most preferred one" as
		// a symbolic condition. Under exploration the choice byte lets the
		// explorer force the route to lose the selection, exercising the
		// other outcome of the decision process (as a configuration change
		// demoting the route would).
		if m != nil {
			preferred := m.Choice("preferred/"+p.String(), true)
			if !m.Branch("bird/route.preferred", preferred) {
				route.Attrs.SetLocalPref(0)
				if route.Sym != nil {
					route.Sym.HasLocalPref = false
				}
			}
		}

		r.adjIn[s.peer].Set(route.Clone())
		change := r.locRIB.Update(m, route)
		r.propagate(env, change, s.peer)
	}
}

// propagate reacts to a best-route change: it records the event and
// re-advertises (or withdraws) the prefix to every established neighbor
// according to export policy.
func (r *Router) propagate(env netem.Env, change rib.BestChange, learnedFrom string) {
	if !change.Changed {
		return
	}
	r.stats.BestChanges++
	r.events = append(r.events, RouteEvent{
		At:     env.Now(),
		Prefix: change.Prefix,
		OldVia: routeVia(change.Old),
		NewVia: routeVia(change.New),
	})
	for _, n := range r.cfg.Neighbors {
		s := r.sessions[n.Name]
		if !s.established() {
			continue
		}
		if n.Name == learnedFrom {
			continue // never echo back to the peer the change came from
		}
		r.advertiseBest(env, s, change.Prefix, change.New)
	}
}

// advertiseBest sends the export-policy view of the best route for one prefix
// to one neighbor, or a withdrawal when the route is gone or filtered.
func (r *Router) advertiseBest(env netem.Env, s *session, p bgp.Prefix, best *rib.Route) {
	withdraw := func() {
		if r.adjOut[s.peer].Remove(p) {
			r.send(env, s.peer, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
			r.stats.WithdrawalsSent++
			r.stats.UpdatesSent++
		}
	}
	if best == nil {
		withdraw()
		return
	}
	// Do not advertise a route back to the peer it was learned from.
	if best.Peer == s.peer {
		withdraw()
		return
	}
	export := best.Clone()
	if pol := r.cfg.Policies[s.exportPolicy]; pol != nil || s.exportPolicy != "" {
		if pol.Apply(nil, export) == policy.ResultReject {
			r.stats.ExportRejected++
			withdraw()
			return
		}
	}
	attrs := export.Attrs
	attrs.PrependAS(r.cfg.AS, 1)
	attrs.NextHop = uint32(r.cfg.RouterID)
	// LOCAL_PREF is not carried on eBGP sessions.
	if s.peerAS != r.cfg.AS {
		attrs.LocalPref = nil
	}
	out := &rib.Route{Prefix: p, Attrs: attrs, Peer: s.peer}
	r.adjOut[s.peer].Set(out)
	r.send(env, s.peer, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p}})
	r.stats.UpdatesSent++
}

// advertiseFullTable sends the current best route of every prefix to a peer
// whose session just reached Established (initial table exchange).
func (r *Router) advertiseFullTable(env netem.Env, s *session) {
	for _, p := range r.locRIB.Prefixes() {
		r.advertiseBest(env, s, p, r.locRIB.Best(p))
	}
}

func (r *Router) send(env netem.Env, peer string, msg bgp.Message) {
	env.Send(netem.NodeID(peer), bgp.Encode(msg))
}

func routeVia(r *rib.Route) string {
	if r == nil {
		return ""
	}
	if r.Local {
		return "local"
	}
	return r.Peer
}

// CheckInvariants runs the router's local state checks and returns a list of
// violations. These are the checks whose boolean verdicts cross domain
// boundaries through the narrow information-sharing interface; the underlying
// state stays private to the node.
func (r *Router) CheckInvariants() []string {
	var violations []string
	if r.panicked {
		violations = append(violations, fmt.Sprintf("handler crashed: %s", r.lastPanic))
	}
	for _, best := range r.locRIB.BestRoutes() {
		if best.Attrs == nil {
			violations = append(violations, fmt.Sprintf("best route for %s has nil attributes", best.Prefix))
			continue
		}
		if !best.Local && best.Attrs.HasASLoop(r.cfg.AS) {
			violations = append(violations, fmt.Sprintf("best route for %s contains own AS %d in path", best.Prefix, r.cfg.AS))
		}
		if !best.Prefix.Valid() {
			violations = append(violations, fmt.Sprintf("best route for invalid prefix %s", best.Prefix))
		}
		if !best.Local {
			in := r.adjIn[best.Peer]
			if in == nil || in.Get(best.Prefix) == nil {
				violations = append(violations, fmt.Sprintf("best route for %s via %s missing from Adj-RIB-In", best.Prefix, best.Peer))
			}
		}
	}
	for peer, out := range r.adjOut {
		s := r.sessions[peer]
		if s == nil || s.established() {
			continue
		}
		if out.Len() > 0 {
			violations = append(violations, fmt.Sprintf("Adj-RIB-Out for down session %s is not empty", peer))
		}
	}
	if n := len(violations); n != r.stats.InvariantFailures {
		r.stats.InvariantFailures = n
		r.dirty = true
	}
	return violations
}
