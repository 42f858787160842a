package bird

import (
	"strings"
	"time"

	"github.com/dice-project/dice/internal/bgp/policy"
	"github.com/dice-project/dice/internal/node"
)

// Serializable record forms are shared across backends through package node.
type (
	// RouteRecord is the serializable form of one RIB entry.
	RouteRecord = node.RouteRecord
	// SessionRecord is the serializable form of one session's state.
	SessionRecord = node.SessionRecord
	// EventRecord is the serializable form of a RouteEvent.
	EventRecord = node.EventRecord
)

// Checkpoint is a lightweight checkpoint of one router: its configuration,
// session states, RIB contents and counters. It contains only plain data and
// can be serialized (the backend's canonical codec payload), cloned, and
// restored into a fresh Router that behaves identically from that state
// onward — which is exactly what DiCE's exploration needs. The configuration
// travels in bird's dialect: the BIRD-filter policy syntax of PoliciesText.
type Checkpoint struct {
	Name              string
	AS                uint32
	RouterID          uint32
	Networks          []string
	Neighbors         []NeighborConfig
	PoliciesText      string
	HoldTime          time.Duration
	KeepaliveInterval time.Duration
	ConnectRetry      time.Duration

	Sessions []SessionRecord
	AdjIn    node.PeerRouteMap
	LocRIB   []RouteRecord
	AdjOut   node.PeerRouteMap

	Stats     RouterStats
	Events    []EventRecord
	Panicked  bool
	LastPanic string
	Started   bool

	// cfg keeps the in-process configuration (with its parsed policies) so
	// that Restore within the same process does not have to re-parse
	// PoliciesText. It is intentionally unexported: a checkpoint that crossed
	// a process boundary restores from the textual form.
	cfg *Config
}

// NodeName implements node.Checkpoint.
func (cp *Checkpoint) NodeName() string { return cp.Name }

// Implementation implements node.Checkpoint.
func (cp *Checkpoint) Implementation() string { return Implementation }

// Checkpoint captures the router's current state.
func (r *Router) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Name:              r.cfg.Name,
		AS:                uint32(r.cfg.AS),
		RouterID:          uint32(r.cfg.RouterID),
		Neighbors:         append([]NeighborConfig(nil), r.cfg.Neighbors...),
		HoldTime:          r.cfg.HoldTime,
		KeepaliveInterval: r.cfg.KeepaliveInterval,
		ConnectRetry:      r.cfg.ConnectRetry,
		AdjIn:             make(map[string][]RouteRecord),
		AdjOut:            make(map[string][]RouteRecord),
		Stats:             r.stats,
		Panicked:          r.panicked,
		LastPanic:         r.lastPanic,
		Started:           r.started,
		cfg:               r.cfg,
	}
	for _, p := range r.cfg.Networks {
		cp.Networks = append(cp.Networks, p.String())
	}
	var policies []string
	for _, name := range sortedPolicyNames(r.cfg.Policies) {
		policies = append(policies, r.cfg.Policies[name].String())
	}
	cp.PoliciesText = strings.Join(policies, "\n")

	for _, n := range r.cfg.Neighbors {
		s := r.sessions[n.Name]
		cp.Sessions = append(cp.Sessions, SessionRecord{
			Peer:                  s.peer,
			PeerAS:                uint32(s.peerAS),
			State:                 int(s.state),
			PeerRouterID:          uint32(s.peerRouterID),
			DownCount:             s.downCount,
			NotificationsSent:     s.notificationsSent,
			NotificationsReceived: s.notificationsReceived,
		})
		for _, route := range r.adjIn[n.Name].Routes() {
			cp.AdjIn[n.Name] = append(cp.AdjIn[n.Name], node.RecordFromRoute(route))
		}
		for _, route := range r.adjOut[n.Name].Routes() {
			cp.AdjOut[n.Name] = append(cp.AdjOut[n.Name], node.RecordFromRoute(route))
		}
	}
	for _, p := range r.locRIB.Prefixes() {
		for _, cand := range r.locRIB.Candidates(p) {
			cp.LocRIB = append(cp.LocRIB, node.RecordFromRoute(cand))
		}
	}
	for _, ev := range r.events {
		cp.Events = append(cp.Events, EventRecord{
			AtNanos: int64(ev.At),
			Prefix:  ev.Prefix.String(),
			OldVia:  ev.OldVia,
			NewVia:  ev.NewVia,
		})
	}
	return cp
}

func sortedPolicyNames(m map[string]*policy.Policy) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return names
}

// Restore builds a fresh Router from a checkpoint. The router resumes with
// identical configuration, session states, RIB contents and counters; timers
// are re-armed lazily by the next Start or session event.
//
// Restore is the cold path: every call re-validates the configuration
// (re-parsing the textual policy form when the checkpoint crossed a process
// boundary) and re-decodes every route record. Callers restoring many clones
// of the same snapshot should build an Image and a State once (ImageOf,
// DecodeState — or a checkpoint.Store for whole snapshots) and restore onto
// those instead.
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

// Clone returns an isolated deep copy of the router by checkpointing and
// restoring it. The clone shares no mutable state with the original, which
// gives DiCE the isolation guarantee it needs to explore without perturbing
// the deployed node.
func (r *Router) Clone() (*Router, error) {
	return Restore(r.Checkpoint())
}
