// Package obgpd implements the third BGP speaker backend of the DiCE
// reproduction: an OpenBGPD-flavored router that registers as node.Router
// implementation "obgpd". It interoperates with the bird and frr backends
// on the wire — same BGP-4 messages, same interpreted policies — but it is
// deliberately its own implementation along every axis the differential
// oracle exercises:
//
//   - its RIB decision process breaks final ties on the oldest route
//     (rib.DecisionOldestFirst, the lowest Loc-RIB arrival stamp), the
//     deterministic stand-in for OpenBGPD's route-age stability preference
//     and a third legal reading of the RFC 4271 §9.1.2.2 tail alongside
//     bird's router-ID order and frr's neighbor-address order;
//   - its configuration dialect is bgpd.conf-style text with brace-nested
//     neighbor and filter blocks (dialect.go), which is also what its
//     checkpoints carry across process boundaries;
//   - its internal structure mirrors OpenBGPD's process split: a session
//     engine owns the per-neighbor FSM, a route decision engine (RDE) owns
//     every RIB, and the two halves talk only through counted handoffs —
//     where frr keeps one peer struct holding both halves;
//   - its checkpoint state model clones routes per prefix group rather
//     than frr's flat spans or bird's slab template.
//
// With three backends deployed, checker.CrossImplDivergence upgrades from
// a pairwise alarm to a voting oracle: a selection two backends agree on
// and one contradicts is majority-outvoted, a three-way split is pairwise
// legal. This package provides the third vote.
package obgpd

import (
	"fmt"
	"strings"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
)

// Implementation is this backend's registry tag.
const Implementation = "obgpd"

// Decision is the backend's RIB tie-breaking policy.
const Decision = rib.DecisionOldestFirst

func init() {
	node.Register(node.Backend{
		Name:     Implementation,
		Decision: Decision,
		Build: func(cfg *node.Config) (node.Router, error) {
			return New(cfg)
		},
		ImageOf: func(cp node.Checkpoint) (node.Image, error) {
			ocp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("obgpd: checkpoint for %s is %T, not an obgpd checkpoint", cp.NodeName(), cp)
			}
			return ImageOf(ocp)
		},
		DecodeState: func(cp node.Checkpoint) (node.State, error) {
			ocp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("obgpd: checkpoint for %s is %T, not an obgpd checkpoint", cp.NodeName(), cp)
			}
			return DecodeState(ocp)
		},
		Restore: func(im node.Image, st node.State) (node.Router, error) {
			oim, ok := im.(*Image)
			if !ok {
				return nil, fmt.Errorf("obgpd: image for %s is %T, not an obgpd image", im.Name(), im)
			}
			ost, ok := st.(*State)
			if !ok {
				return nil, fmt.Errorf("obgpd: restore %s: state is %T, not an obgpd state", im.Name(), st)
			}
			return oim.Restore(ost)
		},
		EncodeCanonical: func(cp node.Checkpoint) ([]byte, error) {
			ocp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("obgpd: checkpoint for %s is %T, not an obgpd checkpoint", cp.NodeName(), cp)
			}
			return encodeCanonical(ocp), nil
		},
		DecodeCanonical: func(payload []byte) (node.Checkpoint, error) {
			return decodeCanonical(payload)
		},
	})
}

// sessionState is the session engine's FSM state, following OpenBGPD's
// state names (Connect and Active collapse into one in an emulator whose
// transport never fails to dial).
type sessionState int

const (
	sessionIdle sessionState = iota
	sessionConnect
	sessionOpenSent
	sessionOpenConfirm
	sessionEstablished
)

// session is one neighbor's FSM record. Unlike frr's peer struct it holds
// no RIBs: those live in the RDE, on the other side of the process split.
type session struct {
	neighbor  string
	remoteAS  bgp.ASN
	routerID  bgp.RouterID
	state     sessionState
	filterIn  string
	filterOut string
	downs     int
	notifTx   int
	notifRx   int
}

func (s *session) up() bool { return s.state == sessionEstablished }

// sessionEngine is the FSM half of the router: it owns every session and
// nothing else, mirroring OpenBGPD's unprivileged session process.
type sessionEngine struct {
	sessions map[string]*session
	// order keeps sessions in configuration order for deterministic sweeps.
	order []string
}

// rde is the route decision engine: it owns the Adj-RIBs and the Loc-RIB,
// and it alone runs the decision process.
type rde struct {
	adjIn  map[string]*rib.AdjRIBIn
	adjOut map[string]*rib.AdjRIBOut
	locRIB *rib.LocRIB
}

// EngineStats counts traffic across the session-engine/RDE split — the
// imsg channel a real OpenBGPD pushes every route and session event
// through. They are obgpd-only counters, checkpointed next to the shared
// node.RouterStats and restored with them, so they are a deterministic
// function of execution history like everything else in a checkpoint.
type EngineStats struct {
	// ImsgsSEToRDE counts session-engine→RDE handoffs: parsed updates,
	// withdrawals and session-down sweeps entering the decision engine.
	ImsgsSEToRDE int
	// ImsgsRDEToSE counts RDE→session-engine handoffs: advertisements and
	// withdrawals leaving the decision engine for the wire.
	ImsgsRDEToSE int
	// RDEDecisions counts decision-process runs inside the RDE.
	RDEDecisions int
}

// Router is the OpenBGPD-flavored emulated BGP speaker. It implements
// node.Router and netem.Node.
type Router struct {
	cfg *node.Config
	se  sessionEngine
	rde rde

	exploreMachine *concolic.Machine
	explorePeer    string
	explorePending bool
	activeMachine  *concolic.Machine
	hook           node.UpdateHook

	stats     node.RouterStats
	engine    EngineStats
	events    []node.RouteEvent
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

// Interface check: obgpd.Router is a full node.Router backend.
var _ node.Router = (*Router)(nil)

// New builds a router from the semantic configuration and installs the
// locally originated routes into the Loc-RIB.
func New(cfg *node.Config) (*Router, error) {
	cfg = cfg.Clone()
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := newOn(cfg)
	r.networkStatements()
	return r, nil
}

// newOn wires the empty engines for a validated configuration.
func newOn(cfg *node.Config) *Router {
	r := &Router{
		cfg: cfg,
		se:  sessionEngine{sessions: make(map[string]*session, len(cfg.Neighbors))},
		rde: rde{
			adjIn:  make(map[string]*rib.AdjRIBIn, len(cfg.Neighbors)),
			adjOut: make(map[string]*rib.AdjRIBOut, len(cfg.Neighbors)),
			locRIB: rib.NewLocRIBFor(Decision),
		},
	}
	for _, n := range cfg.Neighbors {
		r.addNeighbor(n)
	}
	return r
}

func (r *Router) addNeighbor(n node.NeighborConfig) *session {
	s := &session{
		neighbor:  n.Name,
		remoteAS:  n.AS,
		filterIn:  n.Import,
		filterOut: n.Export,
	}
	r.se.sessions[n.Name] = s
	r.se.order = append(r.se.order, n.Name)
	r.rde.adjIn[n.Name] = rib.NewAdjRIBIn()
	r.rde.adjOut[n.Name] = rib.NewAdjRIBOut()
	return s
}

// networkStatements installs the locally originated prefixes, the RDE's
// reading of the config's network statements.
func (r *Router) networkStatements() {
	for _, pfx := range r.cfg.Networks {
		r.engine.RDEDecisions++
		r.rde.locRIB.Update(nil, &rib.Route{
			Prefix: pfx,
			Attrs:  &bgp.PathAttributes{Origin: bgp.OriginIGP, NextHop: uint32(r.cfg.RouterID)},
			Local:  true,
		})
		r.stats.RoutesOriginated++
	}
}

// ID implements netem.Node.
func (r *Router) ID() netem.NodeID { return netem.NodeID(r.cfg.Name) }

// Implementation implements node.Router.
func (r *Router) Implementation() string { return Implementation }

// Config implements node.Router.
func (r *Router) Config() *node.Config { return r.cfg }

// LocRIB implements node.Router.
func (r *Router) LocRIB() *rib.LocRIB { return r.rde.locRIB }

// AdjIn returns the RDE's Adj-RIB-In for a neighbor, or nil.
func (r *Router) AdjIn(name string) *rib.AdjRIBIn { return r.rde.adjIn[name] }

// AdjOut returns the RDE's Adj-RIB-Out for a neighbor, or nil.
func (r *Router) AdjOut(name string) *rib.AdjRIBOut { return r.rde.adjOut[name] }

// Stats implements node.Router.
func (r *Router) Stats() node.RouterStats { return r.stats }

// Engine returns the obgpd-only process-split counters.
func (r *Router) Engine() EngineStats { return r.engine }

// Events implements node.Router.
func (r *Router) Events() []node.RouteEvent { return r.events }

// Panicked implements node.Router.
func (r *Router) Panicked() (bool, string) { return r.panicked, r.lastPanic }

// SetUpdateHook implements node.Router.
func (r *Router) SetUpdateHook(h node.UpdateHook) { r.hook = h }

// ActiveMachine implements node.Router (and node.HookContext).
func (r *Router) ActiveMachine() *concolic.Machine { return r.activeMachine }

// ExploreNextUpdate implements node.Router: the next UPDATE received from
// the named peer is parsed under the machine.
func (r *Router) ExploreNextUpdate(m *concolic.Machine, fromPeer string) {
	r.exploreMachine, r.explorePeer, r.explorePending = m, fromPeer, true
}

//
// netem.Node implementation — the session engine's half.
//

// Start implements netem.Node: every configured session leaves Idle
// through Connect (the emulated transport always dials) and sends OPEN.
func (r *Router) Start(env netem.Env) {
	if r.started {
		return
	}
	r.started = true
	r.dirty = true
	for _, name := range r.se.order {
		r.sessionConnectTo(env, r.se.sessions[name])
	}
}

func (r *Router) sessionConnectTo(env netem.Env, s *session) {
	s.state = sessionConnect
	r.send(env, s.neighbor, &bgp.Open{
		Version:  bgp.Version,
		AS:       r.cfg.AS,
		HoldTime: uint16(r.cfg.HoldTime / time.Second),
		RouterID: r.cfg.RouterID,
	})
	r.stats.OpensSent++
	s.state = sessionOpenSent
	env.SetTimer("connretry/"+s.neighbor, r.cfg.ConnectRetry)
}

// HandleTimer implements netem.Node.
func (r *Router) HandleTimer(env netem.Env, name string) {
	r.dirty = true
	if neighbor, ok := strings.CutPrefix(name, "connretry/"); ok {
		if s := r.se.sessions[neighbor]; s != nil && !s.up() {
			r.sessionConnectTo(env, s)
		}
		return
	}
	if neighbor, ok := strings.CutPrefix(name, "keepalive/"); ok {
		s := r.se.sessions[neighbor]
		if s != nil && s.up() && r.cfg.KeepaliveInterval > 0 {
			r.send(env, neighbor, &bgp.Keepalive{})
			r.stats.KeepalivesSent++
			env.SetTimer(name, r.cfg.KeepaliveInterval)
		}
	}
}

// HandleMessage implements netem.Node. Handler crashes (including those
// from injected programming errors) are contained and recorded, mirroring
// a daemon whose crash is flagged by its supervisor.
func (r *Router) HandleMessage(env netem.Env, from netem.NodeID, payload []byte) {
	r.dirty = true
	defer func() {
		if rec := recover(); rec != nil {
			r.panicked = true
			r.lastPanic = fmt.Sprint(rec)
			r.stats.HandlerCrashes++
		}
	}()
	s := r.se.sessions[string(from)]
	if s == nil {
		return // message from an unconfigured neighbor: ignore
	}
	typ, body, err := bgp.ValidateHeader(payload)
	if err != nil {
		r.sessionError(env, s, err)
		return
	}
	switch typ {
	case bgp.MsgOpen:
		r.recvOpen(env, s, body)
	case bgp.MsgKeepalive:
		r.recvKeepalive(env, s)
	case bgp.MsgNotification:
		s.notifRx++
		r.sessionDown(env, s)
	case bgp.MsgUpdate:
		if !s.up() {
			r.sessionError(env, s, &bgp.MessageError{Code: bgp.ErrFiniteStateMachine, Reason: "UPDATE outside Established"})
			return
		}
		r.recvUpdate(env, s, body)
	}
}

// openWire rebuilds the wire header for an OPEN body so the shared decoder
// can be reused for validation.
func openWire(body []byte) []byte {
	hdr := make([]byte, bgp.HeaderLen, bgp.HeaderLen+len(body))
	for i := 0; i < bgp.MarkerLen; i++ {
		hdr[i] = 0xff
	}
	total := bgp.HeaderLen + len(body)
	hdr[16], hdr[17], hdr[18] = byte(total>>8), byte(total), byte(bgp.MsgOpen)
	return append(hdr, body...)
}

func (r *Router) recvOpen(env netem.Env, s *session, body []byte) {
	msg, err := bgp.Decode(openWire(body))
	if err != nil {
		r.sessionError(env, s, err)
		return
	}
	open := msg.(*bgp.Open)
	if open.AS != s.remoteAS&0xffff && open.AS != s.remoteAS {
		r.sessionError(env, s, &bgp.MessageError{Code: bgp.ErrOpenMessage, Subcode: bgp.ErrSubBadPeerAS,
			Reason: fmt.Sprintf("expected AS %d, got %d", s.remoteAS, open.AS)})
		return
	}
	s.routerID = open.RouterID
	switch s.state {
	case sessionIdle, sessionConnect, sessionOpenSent:
		// Collision handling is collapsed: reply with our OPEN if we had
		// not sent one, then confirm.
		if s.state == sessionIdle {
			r.send(env, s.neighbor, &bgp.Open{
				Version:  bgp.Version,
				AS:       r.cfg.AS,
				HoldTime: uint16(r.cfg.HoldTime / time.Second),
				RouterID: r.cfg.RouterID,
			})
			r.stats.OpensSent++
		}
		r.send(env, s.neighbor, &bgp.Keepalive{})
		r.stats.KeepalivesSent++
		s.state = sessionOpenConfirm
	case sessionOpenConfirm, sessionEstablished:
		// Duplicate OPEN: ignore.
	}
}

func (r *Router) recvKeepalive(env netem.Env, s *session) {
	if s.state != sessionOpenConfirm {
		return // refreshes the (disabled) hold timer; nothing to do
	}
	s.state = sessionEstablished
	env.CancelTimer("connretry/" + s.neighbor)
	if r.cfg.KeepaliveInterval > 0 {
		env.SetTimer("keepalive/"+s.neighbor, r.cfg.KeepaliveInterval)
	}
	// Session-up handoff: the RDE dumps the current best of every prefix
	// to the fresh session.
	r.engine.ImsgsSEToRDE++
	for _, pfx := range r.rde.locRIB.Prefixes() {
		r.advertise(env, s, pfx, r.rde.locRIB.Best(pfx))
	}
}

// sessionError sends a NOTIFICATION for the error and tears the session
// down.
func (r *Router) sessionError(env netem.Env, s *session, err error) {
	r.stats.ParseErrors++
	if merr, ok := err.(*bgp.MessageError); ok {
		r.send(env, s.neighbor, merr.Notification())
	} else {
		r.send(env, s.neighbor, &bgp.Notification{Code: bgp.ErrCease})
	}
	s.notifTx++
	r.stats.NotificationsSent++
	r.sessionDown(env, s)
}

// sessionDown tears the session down: the session engine hands the RDE a
// peer-down sweep withdrawing every route learned from it (the "local
// session reset" whose system-wide consequences the paper calls out), and
// the session restarts after the connect-retry timer.
func (r *Router) sessionDown(env netem.Env, s *session) {
	if s.up() {
		r.stats.SessionResets++
	}
	s.state = sessionIdle
	s.downs++
	r.engine.ImsgsSEToRDE++
	in, out := r.rde.adjIn[s.neighbor], r.rde.adjOut[s.neighbor]
	for _, route := range in.Routes() {
		in.Remove(route.Prefix)
		r.bestChanged(env, r.rdeWithdraw(nil, route.Prefix, s.neighbor), s.neighbor)
	}
	for _, route := range out.Routes() {
		out.Remove(route.Prefix)
	}
	env.SetTimer("connretry/"+s.neighbor, r.cfg.ConnectRetry)
}

//
// UPDATE processing — the session engine parses, the RDE decides.
//

// rdeUpdate and rdeWithdraw are the RDE's decision-process entry points;
// every Loc-RIB mutation counts as one decision run.
func (r *Router) rdeUpdate(m *concolic.Machine, route *rib.Route) rib.BestChange {
	r.engine.RDEDecisions++
	return r.rde.locRIB.Update(m, route)
}

func (r *Router) rdeWithdraw(m *concolic.Machine, pfx bgp.Prefix, from string) rib.BestChange {
	r.engine.RDEDecisions++
	return r.rde.locRIB.Withdraw(m, pfx, from)
}

func (r *Router) recvUpdate(env netem.Env, s *session, body []byte) {
	r.stats.UpdatesReceived++

	var m *concolic.Machine
	if r.explorePending && r.explorePeer == s.neighbor {
		m = r.exploreMachine
		r.explorePending = false
		r.stats.ExploredSymbolic++
	}
	r.activeMachine = m
	defer func() { r.activeMachine = nil }()

	u, err := bgp.ParseUpdateSym(m, "update", body)
	if err != nil {
		r.sessionError(env, s, err)
		return
	}

	if r.hook != nil {
		if herr := r.hook(r, s.neighbor, u); herr != nil {
			// The injected programming error "crashed" the handler.
			r.panicked = true
			r.lastPanic = herr.Error()
			r.stats.HandlerCrashes++
			r.stats.UpdatesHookDropped++
			return
		}
	}

	// The parsed update crosses the process split once, withdrawals and
	// announcements together.
	r.engine.ImsgsSEToRDE++
	in := r.rde.adjIn[s.neighbor]
	for _, pfx := range u.Withdrawn {
		if in.Remove(pfx) {
			r.bestChanged(env, r.rdeWithdraw(m, pfx, s.neighbor), s.neighbor)
		}
	}
	r.applyAnnouncements(env, s, m, u)
}

func (r *Router) applyAnnouncements(env netem.Env, s *session, m *concolic.Machine, u *bgp.Update) {
	if len(u.NLRI) == 0 || u.Attrs == nil {
		return
	}
	in := r.rde.adjIn[s.neighbor]
	for i, pfx := range u.NLRI {
		attrs := u.Attrs.Clone()

		// eBGP loop prevention: a path that already contains our AS is
		// ignored.
		if attrs.HasASLoop(r.cfg.AS) {
			r.stats.ASLoopsIgnored++
			continue
		}

		route := &rib.Route{
			Prefix:       pfx,
			Attrs:        attrs,
			Peer:         s.neighbor,
			PeerAS:       s.remoteAS,
			PeerRouterID: s.routerID,
			EBGP:         s.remoteAS != r.cfg.AS,
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
		// symbolic shadow is scrubbed with it so exploration cannot reason
		// about a LOCAL_PREF the router concretely ignores (kept in
		// lockstep with the bird and frr backends).
		if route.EBGP {
			route.Attrs.LocalPref = nil
			if route.Sym != nil {
				route.Sym.HasLocalPref = false
			}
		}

		// Import filter (interpreted; constraints recorded when tracing).
		if res := r.cfg.Policies[s.filterIn].Apply(m, route); res == policy.ResultReject {
			r.stats.ImportRejected++
			// Treat-as-withdraw for any previously accepted route.
			if in.Remove(pfx) {
				r.bestChanged(env, r.rdeWithdraw(m, pfx, s.neighbor), s.neighbor)
			}
			continue
		}

		// The paper treats "is this route the locally most preferred one"
		// as a symbolic condition; under exploration the choice byte lets
		// the explorer force the route to lose the selection.
		if m != nil {
			preferred := m.Choice("preferred/"+pfx.String(), true)
			if !m.Branch("obgpd/route.preferred", preferred) {
				route.Attrs.SetLocalPref(0)
				if route.Sym != nil {
					route.Sym.HasLocalPref = false
				}
			}
		}

		in.Set(route.Clone())
		r.bestChanged(env, r.rdeUpdate(m, route), s.neighbor)
	}
}

// bestChanged reacts to a best-route change: it records the event and
// re-advertises (or withdraws) the prefix to every established session
// according to export filters.
func (r *Router) bestChanged(env netem.Env, change rib.BestChange, learnedFrom string) {
	if !change.Changed {
		return
	}
	r.stats.BestChanges++
	r.events = append(r.events, node.RouteEvent{
		At:     env.Now(),
		Prefix: change.Prefix,
		OldVia: viaOf(change.Old),
		NewVia: viaOf(change.New),
	})
	for _, name := range r.se.order {
		s := r.se.sessions[name]
		if !s.up() || name == learnedFrom {
			continue // never echo back to the session the change came from
		}
		r.advertise(env, s, change.Prefix, change.New)
	}
}

// advertise hands the export-filter view of the best route for one prefix
// back to the session engine for one neighbor, or a withdrawal when the
// route is gone or filtered.
func (r *Router) advertise(env netem.Env, s *session, pfx bgp.Prefix, best *rib.Route) {
	r.engine.ImsgsRDEToSE++
	out := r.rde.adjOut[s.neighbor]
	withdraw := func() {
		if out.Remove(pfx) {
			r.send(env, s.neighbor, &bgp.Update{Withdrawn: []bgp.Prefix{pfx}})
			r.stats.WithdrawalsSent++
			r.stats.UpdatesSent++
		}
	}
	// No route, or a route that must not be advertised back to its source.
	if best == nil || best.Peer == s.neighbor {
		withdraw()
		return
	}
	export := best.Clone()
	if r.cfg.Policies[s.filterOut].Apply(nil, export) == policy.ResultReject {
		r.stats.ExportRejected++
		withdraw()
		return
	}
	attrs := export.Attrs
	attrs.PrependAS(r.cfg.AS, 1)
	attrs.NextHop = uint32(r.cfg.RouterID)
	// LOCAL_PREF is not carried on eBGP sessions.
	if s.remoteAS != r.cfg.AS {
		attrs.LocalPref = nil
	}
	out.Set(&rib.Route{Prefix: pfx, Attrs: attrs, Peer: s.neighbor})
	r.send(env, s.neighbor, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{pfx}})
	r.stats.UpdatesSent++
}

func (r *Router) send(env netem.Env, to string, msg bgp.Message) {
	env.Send(netem.NodeID(to), bgp.Encode(msg))
}

func viaOf(route *rib.Route) string {
	switch {
	case route == nil:
		return ""
	case route.Local:
		return "local"
	default:
		return route.Peer
	}
}

// CheckInvariants implements node.Router: the same local state checks as
// the bird and frr backends, so cross-implementation verdicts are
// comparable.
func (r *Router) CheckInvariants() []string {
	var violations []string
	if r.panicked {
		violations = append(violations, fmt.Sprintf("handler crashed: %s", r.lastPanic))
	}
	for _, best := range r.rde.locRIB.BestRoutes() {
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
			in := r.rde.adjIn[best.Peer]
			if in == nil || in.Get(best.Prefix) == nil {
				violations = append(violations, fmt.Sprintf("best route for %s via %s missing from Adj-RIB-In", best.Prefix, best.Peer))
			}
		}
	}
	for _, name := range r.se.order {
		if r.se.sessions[name].up() {
			continue
		}
		if r.rde.adjOut[name].Len() > 0 {
			violations = append(violations, fmt.Sprintf("Adj-RIB-Out for down session %s is not empty", name))
		}
	}
	if n := len(violations); n != r.stats.InvariantFailures {
		r.stats.InvariantFailures = n
		r.dirty = true
	}
	return violations
}
