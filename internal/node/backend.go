package node

import (
	"fmt"
	"sort"
	"sync"

	"github.com/dice-project/dice/internal/bgp/rib"
)

// DefaultImplementation is the backend used for topology nodes that do not
// tag one explicitly, preserving the homogeneous behavior of earlier
// releases byte for byte.
const DefaultImplementation = "bird"

// Backend is one registered router implementation. The cluster and snapshot
// layers drive every per-implementation operation through it, so a new
// backend plugs in by registering — no cluster, checkpoint or campaign code
// names a concrete speaker.
type Backend struct {
	// Name is the implementation tag topology nodes and checkpoints carry.
	Name string
	// Decision is the backend's RIB tie-breaking order. The
	// CrossImplDivergence checker replays candidate sets through the
	// deployed backends' policies to flag selections that depend on which
	// implementation a node runs.
	Decision rib.DecisionPolicy
	// Build constructs a running router from the semantic configuration.
	Build func(cfg *Config) (Router, error)
	// ImageOf decodes a checkpoint's immutable half (validated config).
	ImageOf func(cp Checkpoint) (Image, error)
	// DecodeState decodes a checkpoint's mutable half into restore-ready
	// form.
	DecodeState func(cp Checkpoint) (State, error)
	// Restore builds a fresh router from a decoded image and state.
	Restore func(im Image, st State) (Router, error)
	// EncodeCanonical serializes a checkpoint into the backend's
	// deterministic canonical codec payload: identical state always encodes
	// to identical bytes (sorted map iteration, varint slabs). This is the
	// byte form content hashes and binary deltas are computed over, framed
	// by checkpoint.EncodeNode with the codec header and implementation tag,
	// and the only form in which a checkpoint crosses a process boundary.
	EncodeCanonical func(cp Checkpoint) ([]byte, error)
	// DecodeCanonical parses a canonical payload produced by EncodeCanonical
	// back into a checkpoint. Malformed payloads error, never panic.
	DecodeCanonical func(payload []byte) (Checkpoint, error)
}

// Registry is an isolated backend namespace. Production code uses the
// process-wide default registry that the package-level functions delegate
// to; tests that need throwaway backends (crash stand-ins, wrapped drivers)
// construct their own Registry so nothing leaks across test boundaries and
// duplicate-name panics cannot depend on registration order across tests.
//
// The zero value is ready to use.
type Registry struct {
	mu  sync.RWMutex
	set map[string]Backend
}

// NewRegistry returns an empty backend registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a backend to the registry. Every field but Decision is
// required: registering an incomplete backend or re-registering a name
// panics (two packages claiming one implementation is a programming error,
// not a runtime condition).
func (reg *Registry) Register(b Backend) {
	if b.Name == "" || b.Build == nil || b.ImageOf == nil || b.DecodeState == nil || b.Restore == nil ||
		b.EncodeCanonical == nil || b.DecodeCanonical == nil {
		panic("node: incomplete backend registration")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.set == nil {
		reg.set = make(map[string]Backend)
	}
	if _, dup := reg.set[b.Name]; dup {
		panic(fmt.Sprintf("node: backend %q registered twice", b.Name))
	}
	reg.set[b.Name] = b
}

// BackendFor resolves an implementation tag ("" selects the default).
func (reg *Registry) BackendFor(impl string) (Backend, error) {
	if impl == "" {
		impl = DefaultImplementation
	}
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	b, ok := reg.set[impl]
	if !ok {
		return Backend{}, fmt.Errorf("node: unknown router implementation %q (registered: %v)", impl, reg.registeredLocked())
	}
	return b, nil
}

// Implementations returns the registered backend names, sorted.
func (reg *Registry) Implementations() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return reg.registeredLocked()
}

func (reg *Registry) registeredLocked() []string {
	names := make([]string, 0, len(reg.set))
	for name := range reg.set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildRouter constructs a router of the given implementation ("" selects
// the default) from the semantic configuration.
func (reg *Registry) BuildRouter(impl string, cfg *Config) (Router, error) {
	b, err := reg.BackendFor(impl)
	if err != nil {
		return nil, err
	}
	return b.Build(cfg)
}

// RestoreRouter rebuilds a router from a checkpoint by dispatching to the
// backend the checkpoint names. It is the cold path: every call re-decodes
// the checkpoint; code restoring many clones of one snapshot should decode
// an image and state once (checkpoint.Store does) and restore onto those.
func (reg *Registry) RestoreRouter(cp Checkpoint) (Router, error) {
	b, err := reg.BackendFor(cp.Implementation())
	if err != nil {
		return nil, err
	}
	im, err := b.ImageOf(cp)
	if err != nil {
		return nil, err
	}
	st, err := b.DecodeState(cp)
	if err != nil {
		return nil, err
	}
	return b.Restore(im, st)
}

// defaultRegistry is the process-wide namespace backend packages register
// into from their init functions.
var defaultRegistry = NewRegistry()

// Register adds a backend to the default registry. Backends register from
// their package init, so importing an implementation package makes it
// available; re-registering a name panics.
func Register(b Backend) { defaultRegistry.Register(b) }

// BackendFor resolves an implementation tag in the default registry ("" selects
// the default implementation).
func BackendFor(impl string) (Backend, error) { return defaultRegistry.BackendFor(impl) }

// Implementations returns the default registry's backend names, sorted.
func Implementations() []string { return defaultRegistry.Implementations() }

// BuildRouter constructs a router via the default registry.
func BuildRouter(impl string, cfg *Config) (Router, error) {
	return defaultRegistry.BuildRouter(impl, cfg)
}

// RestoreRouter rebuilds a router from a checkpoint via the default registry.
func RestoreRouter(cp Checkpoint) (Router, error) {
	return defaultRegistry.RestoreRouter(cp)
}
