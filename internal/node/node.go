// Package node defines the implementation-neutral router abstraction the
// DiCE layers above the BGP speakers are written against. The paper tests
// *heterogeneous* deployments — federations whose members run different
// implementations of the same protocol — so nothing in the cluster, snapshot,
// clone-pool, checker or campaign layers may depend on a concrete speaker:
//
//   - Router is the behavioral interface a backend implements (config access,
//     RIB inspection, event log, invariant checks, checkpointing, in-place
//     reset, and the concolic exploration hooks);
//   - Checkpoint / Image / State are the opaque handles the snapshot store
//     moves around; only the owning backend can look inside them;
//   - Backend is the registry entry a backend contributes (construction,
//     checkpoint decoding, restore, and its RIB decision policy — the
//     deliberately different-but-legal tie-breaking that makes heterogeneous
//     deployments diverge);
//   - Config is the shared semantic configuration the cluster layer produces;
//     each backend lowers it into its own dialect.
//
// The concrete backends are internal/bird (the BIRD-like speaker the paper
// instruments) and internal/frr (an FRR-flavored speaker with its own config
// dialect and tie-break order).
package node

import (
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/bgp/rib"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/netem"
)

// HookContext is the view of a router an injected UPDATE hook gets: enough to
// participate in concolic exploration, nothing implementation-specific.
type HookContext interface {
	// ActiveMachine returns the concolic machine of the UPDATE currently
	// being handled, or nil when processing is concrete. Fault hooks call it
	// so their trigger conditions are recorded as negatable branch
	// constraints.
	ActiveMachine() *concolic.Machine
}

// UpdateHook is called after an UPDATE has been parsed and before it is
// processed. The faults package uses it to inject programming errors into the
// message handler: a hook may mutate the update or the router, and a non-nil
// return is treated as a crash of the handler.
type UpdateHook func(r HookContext, from string, u *bgp.Update) error

// RouterStats counts router activity. All counters are cumulative since the
// router was created (and survive checkpointing). Both backends keep the
// same counter set, so the stats are comparable across implementations.
type RouterStats struct {
	UpdatesReceived    int
	UpdatesSent        int
	WithdrawalsSent    int
	OpensSent          int
	KeepalivesSent     int
	NotificationsSent  int
	ParseErrors        int
	ImportRejected     int
	ExportRejected     int
	ASLoopsIgnored     int
	BestChanges        int
	SessionResets      int
	HandlerCrashes     int
	ExploredSymbolic   int
	InvariantFailures  int
	RoutesOriginated   int
	UpdatesHookDropped int
}

// RouteEvent records one change of the best route for a prefix. The
// oscillation (policy conflict) checker consumes the sequence of events.
type RouteEvent struct {
	At     time.Duration
	Prefix bgp.Prefix
	OldVia string
	NewVia string
}

// Checkpoint is the serializable per-node half of a consistent snapshot. The
// concrete type belongs to the backend that produced it; the snapshot layer
// treats it as opaque data tagged with the node name and the implementation
// needed to restore it. Backends register canonical codec encoders for their
// concrete checkpoint types so mixed-implementation snapshots cross process
// boundaries.
type Checkpoint interface {
	// NodeName is the checkpointed router's name.
	NodeName() string
	// Implementation names the backend that can restore the checkpoint.
	Implementation() string
}

// Image is the immutable, shareable part of a restored node: its validated
// configuration in decoded form, built once per snapshot and shared by every
// clone. Opaque outside the owning backend.
type Image interface {
	// Name is the imaged router's name.
	Name() string
	// Implementation names the owning backend.
	Implementation() string
}

// State is a backend's decoded, restore-ready mutable node state. It is
// fully opaque: only Backend.Restore and Router.ResetTo consume it, and both
// reject a State produced by a different backend.
type State any

// Router is the behavioral interface every BGP speaker backend implements.
// It is the only view the cluster, checker and campaign layers have of a
// node, which is what lets one deployment mix implementations.
type Router interface {
	netem.Node

	// Implementation names the backend ("bird", "frr").
	Implementation() string
	// Config returns the router's semantic configuration. Callers must not
	// mutate it.
	Config() *Config
	// LocRIB returns the router's Loc-RIB.
	LocRIB() *rib.LocRIB
	// Events returns the best-route change log.
	Events() []RouteEvent
	// Stats returns a snapshot of the router counters.
	Stats() RouterStats
	// Panicked reports whether the UPDATE handler crashed (directly or
	// through an injected fault) and the crash reason.
	Panicked() (bool, string)
	// CheckInvariants runs the router's local state checks and returns the
	// violations. These are the checks whose boolean verdicts cross domain
	// boundaries through the narrow information-sharing interface.
	CheckInvariants() []string

	// TakeCheckpoint captures the router's current state.
	TakeCheckpoint() Checkpoint
	// ResetTo returns the router to the snapshot described by (image, state)
	// in place, overwriting every piece of mutable state. It fails when the
	// image or state belongs to a different backend. The armed exploration
	// and the update hook are always cleared. A router's state changes only
	// through Start, HandleMessage and HandleTimer (and the failure count
	// CheckInvariants records), so a router may skip rewinding state none
	// of them has changed since it was last reset to that same State.
	ResetTo(im Image, st State) error

	// ExploreNextUpdate arms symbolic tracing: the next UPDATE received from
	// the named peer is parsed under the machine. This is how the DiCE
	// orchestrator turns a cloned router into the subject of one concolic
	// execution.
	ExploreNextUpdate(m *concolic.Machine, fromPeer string)
	// SetUpdateHook installs a (possibly fault-injecting) UPDATE hook.
	SetUpdateHook(h UpdateHook)
	// ActiveMachine returns the machine of the UPDATE being handled, or nil.
	ActiveMachine() *concolic.Machine
}
