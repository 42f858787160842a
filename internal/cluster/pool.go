package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/node"
	"github.com/dice-project/dice/internal/topology"
)

// FromStore builds a shadow cluster from a snapshot store: router states are
// restored from the store's decoded images and baseline states, and the
// captured in-flight messages are re-injected. It is behaviorally identical
// to FromSnapshot over the store's snapshot, but skips all per-clone config
// validation and record parsing — the store did that work once.
func FromStore(topo *topology.Topology, store *checkpoint.Store, opts Options) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Topo:    topo,
		Net:     netem.New(netem.Options{Seed: opts.Seed, Trace: opts.Trace, MaxEvents: opts.MaxEvents}),
		Routers: make(map[string]node.Router, len(topo.Nodes)),
		opts:    opts,
	}
	for _, tn := range topo.Nodes {
		r, err := store.Restore(tn.Name)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.Routers[tn.Name] = r
		c.Net.AddNode(r)
	}
	for _, l := range topo.Links {
		c.Net.Connect(netem.NodeID(l.A), netem.NodeID(l.B), netem.LinkConfig{
			Delay:  l.Delay,
			Jitter: l.Jitter,
			Loss:   l.Loss,
		})
	}
	injectInFlight(c, store.Snapshot())
	return c, nil
}

// ResetToStore rewinds the shadow cluster to the snapshot held by the store:
// every router's mutable state is reset onto its image in place, the network
// is rewound to virtual time zero with an empty event queue and reseeded
// randomness, and the snapshot's in-flight messages are re-injected. The
// result is indistinguishable from a cold FromSnapshot/FromStore rebuild
// (the pool's golden equivalence test asserts byte identity), at a fraction
// of the cost.
func (c *Cluster) ResetToStore(store *checkpoint.Store) error {
	for name, r := range c.Routers {
		im, st := store.Image(name), store.State(name)
		if im == nil || st == nil {
			return fmt.Errorf("cluster: store has no node %q", name)
		}
		if err := r.ResetTo(im, st); err != nil {
			return err
		}
	}
	c.Net.Reset()
	injectInFlight(c, store.Snapshot())
	return nil
}

// injectInFlight replays the snapshot's channel state so the cut stays
// consistent.
func injectInFlight(c *Cluster, snap *checkpoint.Snapshot) {
	for _, msg := range snap.InFlight {
		c.Net.InjectMessage(msg.From, msg.To, msg.Payload, 0)
	}
}

// PoolStats counts clone-lifecycle activity and cost. ColdBuilds are full
// cluster constructions (first lease of each pooled clone, or every clone
// when pooling is disabled); Resets are in-place rewinds of a returned clone.
type PoolStats struct {
	// Leases counts successful Lease calls; Releases counts clones handed
	// back. A quiesced pool must have Leases == Releases — anything else is
	// a leaked clone (see Outstanding).
	Leases   int
	Releases int
	// ColdBuilds / ColdBuildTime count and time full shadow-cluster builds.
	ColdBuilds    int
	ColdBuildTime time.Duration
	// Resets / ResetTime count and time in-place rewinds to the snapshot.
	Resets    int
	ResetTime time.Duration
	// Discards counts pooled clones thrown away because their in-place reset
	// failed; the lease that hit the failure fell through to the next free
	// clone (or a cold build) instead of failing the caller.
	Discards int
}

// ColdBuildPer returns the mean cold-build cost, or zero.
func (s PoolStats) ColdBuildPer() time.Duration {
	if s.ColdBuilds == 0 {
		return 0
	}
	return s.ColdBuildTime / time.Duration(s.ColdBuilds)
}

// ResetPer returns the mean reset cost, or zero.
func (s PoolStats) ResetPer() time.Duration {
	if s.Resets == 0 {
		return 0
	}
	return s.ResetTime / time.Duration(s.Resets)
}

// Add merges two stat sets.
func (s PoolStats) Add(o PoolStats) PoolStats {
	s.Leases += o.Leases
	s.Releases += o.Releases
	s.ColdBuilds += o.ColdBuilds
	s.ColdBuildTime += o.ColdBuildTime
	s.Resets += o.Resets
	s.ResetTime += o.ResetTime
	s.Discards += o.Discards
	return s
}

// Sub removes a baseline from a stat set: callers sharing a pool across
// sequential campaigns snapshot Stats before starting and subtract it after,
// attributing only their own activity.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	s.Leases -= o.Leases
	s.Releases -= o.Releases
	s.ColdBuilds -= o.ColdBuilds
	s.ColdBuildTime -= o.ColdBuildTime
	s.Resets -= o.Resets
	s.ResetTime -= o.ResetTime
	s.Discards -= o.Discards
	return s
}

// ClonePool is a pool of reusable shadow clusters over one snapshot store.
// Workers lease a clone, drive one explored input on it, and release it;
// released clones are rewound to the snapshot on their next lease rather
// than rebuilt. The pool grows on demand (a lease with no free clone builds
// one cold), so its size converges to the worker-pool parallelism.
//
// ClonePool is safe for concurrent use.
type ClonePool struct {
	topo  *topology.Topology
	store *checkpoint.Store
	opts  Options

	mu    sync.Mutex
	free  []*Cluster
	stats PoolStats
}

// NewClonePool returns an empty pool over the snapshot store. Options should
// match the deployed cluster's options, as with FromSnapshot.
func NewClonePool(topo *topology.Topology, store *checkpoint.Store, opts Options) *ClonePool {
	return &ClonePool{topo: topo, store: store, opts: opts}
}

// Store returns the snapshot store the pool restores from.
func (p *ClonePool) Store() *checkpoint.Store { return p.store }

// Lease returns a shadow cluster in snapshot state: a pooled clone rewound to
// the snapshot, or a cold-built one when the pool is empty. A pooled clone
// whose in-place reset fails is closed and discarded (counted in
// PoolStats.Discards) and the lease falls through to the next free clone or
// a cold build, so a corrupted clone degrades the pool instead of failing
// the campaign. The caller owns the clone until Release.
func (p *ClonePool) Lease() (*Cluster, error) {
	for {
		p.mu.Lock()
		var c *Cluster
		if n := len(p.free); n > 0 {
			c = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		}
		p.mu.Unlock()

		if c == nil {
			start := time.Now()
			built, err := FromStore(p.topo, p.store, p.opts)
			elapsed := time.Since(start)
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			p.stats.Leases++
			p.stats.ColdBuilds++
			p.stats.ColdBuildTime += elapsed
			p.mu.Unlock()
			return built, nil
		}

		start := time.Now()
		err := c.ResetToStore(p.store)
		elapsed := time.Since(start)
		if err != nil {
			c.Close()
			p.mu.Lock()
			p.stats.Discards++
			p.mu.Unlock()
			continue
		}
		p.mu.Lock()
		p.stats.Leases++
		p.stats.Resets++
		p.stats.ResetTime += elapsed
		p.mu.Unlock()
		return c, nil
	}
}

// Release returns a leased clone to the pool. The clone may be in any state;
// it is rewound to the snapshot on its next lease. A clone with an unhealthy
// driver (dead subprocess) is closed and discarded instead of pooled — the
// release is still counted, so Leases==Releases holds and the leak tests
// stay sound.
func (p *ClonePool) Release(c *Cluster) {
	if c == nil {
		return
	}
	dead := c.Unhealthy() != nil
	if dead {
		c.Close()
	}
	p.mu.Lock()
	if dead {
		p.stats.Discards++
	} else {
		p.free = append(p.free, c)
	}
	p.stats.Releases++
	p.mu.Unlock()
}

// Outstanding returns the number of leased clones not yet released. A pool
// whose campaign has finished must report zero — the clone-leak tests assert
// exactly that.
func (p *ClonePool) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.Leases - p.stats.Releases
}

// Size returns the number of idle clones currently pooled.
func (p *ClonePool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Stats returns a snapshot of the pool's lifecycle counters.
func (p *ClonePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
