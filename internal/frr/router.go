// Package frr implements the second BGP speaker backend of the DiCE
// reproduction: an FRR-flavored router that registers as node.Router
// implementation "frr". It speaks the same BGP-4 wire format and evaluates
// the same interpreted policies as the bird backend — a federation member
// must interoperate — but it is deliberately its own implementation:
//
//   - its RIB decision process breaks final ties on the neighbor address
//     before the originator router ID (rib.DecisionPeerAddressFirst), the
//     deterministic stand-in for FRR's route-age preference and a legal
//     divergence from bird's router-ID-first order (RFC 4271 §9.1.2.2
//     leaves the tail of the ladder to the implementation);
//   - its configuration dialect is FRR vtysh-style text with route-maps
//     (dialect.go), which is also the serialization its checkpoints carry
//     across process boundaries;
//   - its checkpoint state model decodes into per-route clones rather than
//     bird's slab template — a different engineering trade-off with the
//     same observable behavior.
//
// The checker.CrossImplDivergence property exists because of this package:
// under identical inputs, a dual-homed node's best path can depend on which
// of the two backends it runs.
package frr

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
const Implementation = "frr"

// Decision is the backend's RIB tie-breaking policy.
const Decision = rib.DecisionPeerAddressFirst

func init() {
	node.Register(node.Backend{
		Name:     Implementation,
		Decision: Decision,
		Build: func(cfg *node.Config) (node.Router, error) {
			return New(cfg)
		},
		ImageOf: func(cp node.Checkpoint) (node.Image, error) {
			fcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("frr: checkpoint for %s is %T, not an frr checkpoint", cp.NodeName(), cp)
			}
			return ImageOf(fcp)
		},
		DecodeState: func(cp node.Checkpoint) (node.State, error) {
			fcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("frr: checkpoint for %s is %T, not an frr checkpoint", cp.NodeName(), cp)
			}
			return DecodeState(fcp)
		},
		Restore: func(im node.Image, st node.State) (node.Router, error) {
			fim, ok := im.(*Image)
			if !ok {
				return nil, fmt.Errorf("frr: image for %s is %T, not an frr image", im.Name(), im)
			}
			fst, ok := st.(*State)
			if !ok {
				return nil, fmt.Errorf("frr: restore %s: state is %T, not an frr state", im.Name(), st)
			}
			return fim.Restore(fst)
		},
		EncodeCanonical: func(cp node.Checkpoint) ([]byte, error) {
			fcp, ok := cp.(*Checkpoint)
			if !ok {
				return nil, fmt.Errorf("frr: checkpoint for %s is %T, not an frr checkpoint", cp.NodeName(), cp)
			}
			return encodeCanonical(fcp), nil
		},
		DecodeCanonical: func(payload []byte) (node.Checkpoint, error) {
			return decodeCanonical(payload)
		},
	})
}

// peerState is the per-neighbor FSM state (bgpd keeps peers, not sessions).
type peerState int

const (
	peerIdle peerState = iota
	peerOpenSent
	peerOpenConfirm
	peerEstablished
)

// peer is the per-neighbor runtime state.
type peer struct {
	name        string
	as          bgp.ASN
	routerID    bgp.RouterID
	state       peerState
	importMap   string
	exportMap   string
	downCount   int
	notifsSent  int
	notifsRecvd int
	adjIn       *rib.AdjRIBIn
	adjOut      *rib.AdjRIBOut
}

func (p *peer) established() bool { return p.state == peerEstablished }

// Router is the FRR-flavored emulated BGP speaker. It implements
// node.Router and netem.Node.
type Router struct {
	cfg   *node.Config
	peers map[string]*peer
	// order keeps peers in configuration order for deterministic iteration.
	order  []string
	locRIB *rib.LocRIB

	exploreMachine *concolic.Machine
	explorePeer    string
	explorePending bool
	activeMachine  *concolic.Machine
	hook           node.UpdateHook

	stats     node.RouterStats
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

// Interface check: frr.Router is a full node.Router backend.
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
	r.originate()
	return r, nil
}

// newOn wires the empty peer book and RIBs for a validated configuration.
func newOn(cfg *node.Config) *Router {
	r := &Router{
		cfg:    cfg,
		peers:  make(map[string]*peer, len(cfg.Neighbors)),
		locRIB: rib.NewLocRIBFor(Decision),
	}
	for _, n := range cfg.Neighbors {
		r.addPeer(n)
	}
	return r
}

func (r *Router) addPeer(n node.NeighborConfig) *peer {
	p := &peer{
		name:      n.Name,
		as:        n.AS,
		importMap: n.Import,
		exportMap: n.Export,
		adjIn:     rib.NewAdjRIBIn(),
		adjOut:    rib.NewAdjRIBOut(),
	}
	r.peers[n.Name] = p
	r.order = append(r.order, n.Name)
	return p
}

func (r *Router) originate() {
	for _, pfx := range r.cfg.Networks {
		r.locRIB.Update(nil, &rib.Route{
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
func (r *Router) LocRIB() *rib.LocRIB { return r.locRIB }

// AdjIn returns the Adj-RIB-In for a peer, or nil.
func (r *Router) AdjIn(name string) *rib.AdjRIBIn {
	if p := r.peers[name]; p != nil {
		return p.adjIn
	}
	return nil
}

// AdjOut returns the Adj-RIB-Out for a peer, or nil.
func (r *Router) AdjOut(name string) *rib.AdjRIBOut {
	if p := r.peers[name]; p != nil {
		return p.adjOut
	}
	return nil
}

// Stats implements node.Router.
func (r *Router) Stats() node.RouterStats { return r.stats }

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
// netem.Node implementation
//

// Start implements netem.Node: every configured peer leaves Idle by sending
// OPEN.
func (r *Router) Start(env netem.Env) {
	if r.started {
		return
	}
	r.started = true
	r.dirty = true
	for _, name := range r.order {
		r.connect(env, r.peers[name])
	}
}

func (r *Router) connect(env netem.Env, p *peer) {
	p.state = peerOpenSent
	r.send(env, p.name, &bgp.Open{
		Version:  bgp.Version,
		AS:       r.cfg.AS,
		HoldTime: uint16(r.cfg.HoldTime / time.Second),
		RouterID: r.cfg.RouterID,
	})
	r.stats.OpensSent++
	env.SetTimer("retry/"+p.name, r.cfg.ConnectRetry)
}

// HandleTimer implements netem.Node.
func (r *Router) HandleTimer(env netem.Env, name string) {
	r.dirty = true
	if peerName, ok := strings.CutPrefix(name, "retry/"); ok {
		if p := r.peers[peerName]; p != nil && !p.established() {
			r.connect(env, p)
		}
		return
	}
	if peerName, ok := strings.CutPrefix(name, "keepalive/"); ok {
		p := r.peers[peerName]
		if p != nil && p.established() && r.cfg.KeepaliveInterval > 0 {
			r.send(env, peerName, &bgp.Keepalive{})
			r.stats.KeepalivesSent++
			env.SetTimer(name, r.cfg.KeepaliveInterval)
		}
	}
}

// HandleMessage implements netem.Node. Handler crashes (including those from
// injected programming errors) are contained and recorded, mirroring a
// daemon whose crash is flagged by its supervisor.
func (r *Router) HandleMessage(env netem.Env, from netem.NodeID, payload []byte) {
	r.dirty = true
	defer func() {
		if rec := recover(); rec != nil {
			r.panicked = true
			r.lastPanic = fmt.Sprint(rec)
			r.stats.HandlerCrashes++
		}
	}()
	p := r.peers[string(from)]
	if p == nil {
		return // message from an unconfigured neighbor: ignore
	}
	typ, body, err := bgp.ValidateHeader(payload)
	if err != nil {
		r.protocolError(env, p, err)
		return
	}
	switch typ {
	case bgp.MsgOpen:
		r.recvOpen(env, p, body)
	case bgp.MsgKeepalive:
		r.recvKeepalive(env, p)
	case bgp.MsgNotification:
		p.notifsRecvd++
		r.dropPeer(env, p)
	case bgp.MsgUpdate:
		if !p.established() {
			r.protocolError(env, p, &bgp.MessageError{Code: bgp.ErrFiniteStateMachine, Reason: "UPDATE outside Established"})
			return
		}
		r.recvUpdate(env, p, body)
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

func (r *Router) recvOpen(env netem.Env, p *peer, body []byte) {
	msg, err := bgp.Decode(openWire(body))
	if err != nil {
		r.protocolError(env, p, err)
		return
	}
	open := msg.(*bgp.Open)
	if open.AS != p.as&0xffff && open.AS != p.as {
		r.protocolError(env, p, &bgp.MessageError{Code: bgp.ErrOpenMessage, Subcode: bgp.ErrSubBadPeerAS,
			Reason: fmt.Sprintf("expected AS %d, got %d", p.as, open.AS)})
		return
	}
	p.routerID = open.RouterID
	switch p.state {
	case peerIdle, peerOpenSent:
		// Collision handling is collapsed: reply with our OPEN if we had not
		// sent one, then confirm.
		if p.state == peerIdle {
			r.send(env, p.name, &bgp.Open{
				Version:  bgp.Version,
				AS:       r.cfg.AS,
				HoldTime: uint16(r.cfg.HoldTime / time.Second),
				RouterID: r.cfg.RouterID,
			})
			r.stats.OpensSent++
		}
		r.send(env, p.name, &bgp.Keepalive{})
		r.stats.KeepalivesSent++
		p.state = peerOpenConfirm
	case peerOpenConfirm, peerEstablished:
		// Duplicate OPEN: ignore.
	}
}

func (r *Router) recvKeepalive(env netem.Env, p *peer) {
	if p.state != peerOpenConfirm {
		return // refreshes the (disabled) hold timer; nothing to do
	}
	p.state = peerEstablished
	env.CancelTimer("retry/" + p.name)
	if r.cfg.KeepaliveInterval > 0 {
		env.SetTimer("keepalive/"+p.name, r.cfg.KeepaliveInterval)
	}
	// Initial table exchange: the current best of every prefix.
	for _, pfx := range r.locRIB.Prefixes() {
		r.advertise(env, p, pfx, r.locRIB.Best(pfx))
	}
}

// protocolError sends a NOTIFICATION for the error and tears the peer down.
func (r *Router) protocolError(env netem.Env, p *peer, err error) {
	r.stats.ParseErrors++
	if merr, ok := err.(*bgp.MessageError); ok {
		r.send(env, p.name, merr.Notification())
	} else {
		r.send(env, p.name, &bgp.Notification{Code: bgp.ErrCease})
	}
	p.notifsSent++
	r.stats.NotificationsSent++
	r.dropPeer(env, p)
}

// dropPeer tears the peer down: all routes learned from it are withdrawn
// (the "local session reset" whose system-wide consequences the paper calls
// out) and the session restarts after the retry timer.
func (r *Router) dropPeer(env netem.Env, p *peer) {
	if p.established() {
		r.stats.SessionResets++
	}
	p.state = peerIdle
	p.downCount++
	for _, route := range p.adjIn.Routes() {
		p.adjIn.Remove(route.Prefix)
		r.bestChanged(env, r.locRIB.Withdraw(nil, route.Prefix, p.name), p.name)
	}
	for _, route := range p.adjOut.Routes() {
		p.adjOut.Remove(route.Prefix)
	}
	env.SetTimer("retry/"+p.name, r.cfg.ConnectRetry)
}

//
// UPDATE processing — the state-changing code DiCE focuses on.
//

func (r *Router) recvUpdate(env netem.Env, p *peer, body []byte) {
	r.stats.UpdatesReceived++

	var m *concolic.Machine
	if r.explorePending && r.explorePeer == p.name {
		m = r.exploreMachine
		r.explorePending = false
		r.stats.ExploredSymbolic++
	}
	r.activeMachine = m
	defer func() { r.activeMachine = nil }()

	u, err := bgp.ParseUpdateSym(m, "update", body)
	if err != nil {
		r.protocolError(env, p, err)
		return
	}

	if r.hook != nil {
		if herr := r.hook(r, p.name, u); herr != nil {
			// The injected programming error "crashed" the handler.
			r.panicked = true
			r.lastPanic = herr.Error()
			r.stats.HandlerCrashes++
			r.stats.UpdatesHookDropped++
			return
		}
	}

	for _, pfx := range u.Withdrawn {
		if p.adjIn.Remove(pfx) {
			r.bestChanged(env, r.locRIB.Withdraw(m, pfx, p.name), p.name)
		}
	}
	r.applyAnnouncements(env, p, m, u)
}

func (r *Router) applyAnnouncements(env netem.Env, p *peer, m *concolic.Machine, u *bgp.Update) {
	if len(u.NLRI) == 0 || u.Attrs == nil {
		return
	}
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
			Peer:         p.name,
			PeerAS:       p.as,
			PeerRouterID: p.routerID,
			EBGP:         p.as != r.cfg.AS,
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
		// about a LOCAL_PREF the router concretely ignores (kept in lockstep
		// with the bird backend).
		if route.EBGP {
			route.Attrs.LocalPref = nil
			if route.Sym != nil {
				route.Sym.HasLocalPref = false
			}
		}

		// Import route-map (interpreted; constraints recorded when tracing).
		if res := r.cfg.Policies[p.importMap].Apply(m, route); res == policy.ResultReject {
			r.stats.ImportRejected++
			// Treat-as-withdraw for any previously accepted route.
			if p.adjIn.Remove(pfx) {
				r.bestChanged(env, r.locRIB.Withdraw(m, pfx, p.name), p.name)
			}
			continue
		}

		// The paper treats "is this route the locally most preferred one" as
		// a symbolic condition; under exploration the choice byte lets the
		// explorer force the route to lose the selection.
		if m != nil {
			preferred := m.Choice("preferred/"+pfx.String(), true)
			if !m.Branch("frr/route.preferred", preferred) {
				route.Attrs.SetLocalPref(0)
				if route.Sym != nil {
					route.Sym.HasLocalPref = false
				}
			}
		}

		p.adjIn.Set(route.Clone())
		r.bestChanged(env, r.locRIB.Update(m, route), p.name)
	}
}

// bestChanged reacts to a best-route change: it records the event and
// re-advertises (or withdraws) the prefix to every established peer
// according to export policy.
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
	for _, name := range r.order {
		p := r.peers[name]
		if !p.established() || name == learnedFrom {
			continue // never echo back to the peer the change came from
		}
		r.advertise(env, p, change.Prefix, change.New)
	}
}

// advertise sends the export-policy view of the best route for one prefix to
// one peer, or a withdrawal when the route is gone or filtered.
func (r *Router) advertise(env netem.Env, p *peer, pfx bgp.Prefix, best *rib.Route) {
	withdraw := func() {
		if p.adjOut.Remove(pfx) {
			r.send(env, p.name, &bgp.Update{Withdrawn: []bgp.Prefix{pfx}})
			r.stats.WithdrawalsSent++
			r.stats.UpdatesSent++
		}
	}
	// No route, or a route that must not be advertised back to its source.
	if best == nil || best.Peer == p.name {
		withdraw()
		return
	}
	export := best.Clone()
	if r.cfg.Policies[p.exportMap].Apply(nil, export) == policy.ResultReject {
		r.stats.ExportRejected++
		withdraw()
		return
	}
	attrs := export.Attrs
	attrs.PrependAS(r.cfg.AS, 1)
	attrs.NextHop = uint32(r.cfg.RouterID)
	// LOCAL_PREF is not carried on eBGP sessions.
	if p.as != r.cfg.AS {
		attrs.LocalPref = nil
	}
	p.adjOut.Set(&rib.Route{Prefix: pfx, Attrs: attrs, Peer: p.name})
	r.send(env, p.name, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{pfx}})
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

// CheckInvariants implements node.Router: the same local state checks as the
// bird backend, so cross-implementation verdicts are comparable.
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
			p := r.peers[best.Peer]
			if p == nil || p.adjIn.Get(best.Prefix) == nil {
				violations = append(violations, fmt.Sprintf("best route for %s via %s missing from Adj-RIB-In", best.Prefix, best.Peer))
			}
		}
	}
	for _, name := range r.order {
		p := r.peers[name]
		if p.established() {
			continue
		}
		if p.adjOut.Len() > 0 {
			violations = append(violations, fmt.Sprintf("Adj-RIB-Out for down session %s is not empty", name))
		}
	}
	if n := len(violations); n != r.stats.InvariantFailures {
		r.stats.InvariantFailures = n
		r.dirty = true
	}
	return violations
}
