package dice

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/topology"
)

// Budget bounds a campaign.
type Budget struct {
	// TotalInputs bounds clone executions across the whole campaign. Units
	// that pin their own MaxInputs keep it; the rest of the budget (total
	// minus the pinned inputs) is split evenly across the remaining units
	// (remainder to the first ones, minimum one input per unit). Zero gives
	// every unpinned unit the classic per-round default of 64 inputs.
	TotalInputs int
	// MaxDuration bounds the campaign wall clock; Run derives a deadline
	// context from it. Expiry is a normal completion — Run returns the
	// partial result with CampaignResult.BudgetExhausted set and a nil
	// error, distinct from caller cancellation (Cancelled). Zero means no
	// time limit.
	MaxDuration time.Duration
}

// campaignConfig is the resolved option set of a campaign.
type campaignConfig struct {
	explorers       []string
	strategy        Strategy
	workers         int
	budget          Budget
	seed            int64
	fuzzSeeds       int
	useConcolic     bool
	pooledClones    bool
	properties      []checker.Property
	codeFaults      []faults.CodeFault
	clusterOptions  cluster.Options
	shadowMaxEvents int
	eventBuffer     int
	onEvent         func(Event)
	partition       *federation.Partition
	store           *checkpoint.Store
	clonePool       *cluster.ClonePool
	prelude         func(shadow *cluster.Cluster)
	remote          RemoteExecutor
	fedTransport    federation.Transport
	// budgetTimer provides the channel that fires when Budget.MaxDuration
	// elapses; nil selects time.After. Tests inject a hand-driven channel so
	// budget-expiry behavior is exercised without racing the wall clock.
	budgetTimer func(time.Duration) <-chan time.Time
}

func defaultCampaignConfig() campaignConfig {
	return campaignConfig{
		strategy:        DegreeStrategy{},
		workers:         runtime.NumCPU(),
		fuzzSeeds:       8,
		useConcolic:     true,
		pooledClones:    true,
		shadowMaxEvents: 20000,
		eventBuffer:     256,
	}
}

// CampaignOption configures a Campaign at construction.
type CampaignOption func(*campaignConfig)

// WithExplorers sets the explorer node set the strategy plans over. Without
// it, the strategy picks its own default (usually the highest-degree router).
func WithExplorers(names ...string) CampaignOption {
	return func(c *campaignConfig) { c.explorers = append([]string(nil), names...) }
}

// WithStrategy sets the planning strategy (DegreeStrategy is the default).
func WithStrategy(s Strategy) CampaignOption {
	return func(c *campaignConfig) {
		if s != nil {
			c.strategy = s
		}
	}
}

// WithUnits pins the exact (explorer, peer) units to run, bypassing strategy
// planning. A unit with an empty FromPeer gets the explorer's first neighbor.
func WithUnits(units ...Unit) CampaignOption {
	return func(c *campaignConfig) { c.strategy = fixedStrategy{units: units} }
}

// WithWorkers bounds how many clone executions run in parallel. Zero or
// negative selects runtime.NumCPU(). Campaign results are deterministic in
// the worker count: WithWorkers(1) and WithWorkers(n) find the same
// detections.
func WithWorkers(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		c.workers = n
	}
}

// WithBudget bounds the campaign's total inputs and wall-clock duration.
func WithBudget(b Budget) CampaignOption {
	return func(c *campaignConfig) { c.budget = b }
}

// WithSeed sets the campaign seed. Units that do not pin their own seed get
// a per-unit seed derived from it and their plan index, so distinct units
// explore distinct corners of the input space while staying reproducible.
func WithSeed(seed int64) CampaignOption {
	return func(c *campaignConfig) { c.seed = seed }
}

// WithFuzzSeeds sets the default number of grammar-fuzzed seed messages per
// unit (8 when unset).
func WithFuzzSeeds(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n > 0 {
			c.fuzzSeeds = n
		}
	}
}

// WithConcolic toggles concolic input derivation. It is on by default;
// disabling leaves pure grammar-based fuzzing (the ablation in experiment
// E5), whose fixed corpus additionally fans out in parallel within a unit.
func WithConcolic(enabled bool) CampaignOption {
	return func(c *campaignConfig) { c.useConcolic = enabled }
}

// WithProperties sets the checked properties; unset selects
// checker.DefaultProperties for the topology. Calling it with no arguments
// explicitly disables property checking.
func WithProperties(props ...checker.Property) CampaignOption {
	return func(c *campaignConfig) { c.properties = append([]checker.Property{}, props...) }
}

// WithCodeFaults installs the given code faults on every shadow clone
// (mirroring the faulty binary running on the deployed nodes).
func WithCodeFaults(fs ...faults.CodeFault) CampaignOption {
	return func(c *campaignConfig) { c.codeFaults = append([]faults.CodeFault(nil), fs...) }
}

// WithClusterOptions sets the options used when restoring shadow clusters
// from the snapshot; they should match the deployed cluster's options.
func WithClusterOptions(opts cluster.Options) CampaignOption {
	return func(c *campaignConfig) { c.clusterOptions = opts }
}

// WithPooledClones toggles the pooled shadow-cluster runtime (on by default).
// When enabled, workers lease shadow clusters from a ClonePool that rewinds
// returned clones to the snapshot in place; when disabled, every explored
// input pays for a cold cluster.FromSnapshot rebuild (the pre-pool behavior,
// kept as the baseline the E9 experiment measures against). Both modes
// explore identical states and find identical detections.
func WithPooledClones(enabled bool) CampaignOption {
	return func(c *campaignConfig) { c.pooledClones = enabled }
}

// WithSnapshotStore runs the campaign against a pre-taken consistent cut
// instead of snapshotting the deployed cluster inside Run. The store's
// snapshot is the explored state; the campaign never touches the live
// cluster (which may be nil), so exploration can proceed while the
// deployment keeps running. The live runtime uses this to drive back-to-back
// shadow campaigns against each checkpoint epoch. The reported
// SnapshotDuration is (near) zero — the checkpoint pause was paid, and is
// reported, by whoever took the cut — and FullStateBytes is derived from the
// store's per-node encodings.
func WithSnapshotStore(store *checkpoint.Store) CampaignOption {
	return func(c *campaignConfig) { c.store = store }
}

// WithClonePool shares a caller-owned clone pool instead of building one per
// campaign. Only meaningful together with WithSnapshotStore, and the pool
// must be over that same store: the live runtime runs several back-to-back
// scenario campaigns against one epoch, and sharing the pool amortizes the
// cold clone builds to one per worker per epoch instead of one per worker
// per campaign. CampaignResult.CloneStats reports only this campaign's
// share of the pool's activity. Campaigns sharing a pool must run
// sequentially (each campaign's workers already serialize on their own
// leases; two concurrent campaigns would interleave stats attribution).
func WithClonePool(pool *cluster.ClonePool) CampaignOption {
	return func(c *campaignConfig) { c.clonePool = pool }
}

// WithClonePrelude registers fn to run on every leased shadow clone after
// code faults are installed and before the explored input is injected. The
// live runtime uses it to prime clones with a scenario's churn; fn must be
// deterministic (it runs once per explored input, on pooled and cold clones
// alike) and must only touch the given clone.
func WithClonePrelude(fn func(shadow *cluster.Cluster)) CampaignOption {
	return func(c *campaignConfig) { c.prelude = fn }
}

// WithShadowMaxEvents bounds each clone run (20000 when unset).
func WithShadowMaxEvents(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n > 0 {
			c.shadowMaxEvents = n
		}
	}
}

// WithEventBuffer sets the Events channel buffer (256 when unset). A slow
// consumer eventually backpressures the campaign once the buffer fills.
func WithEventBuffer(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n > 0 {
			c.eventBuffer = n
		}
	}
}

// WithOnEvent registers a synchronous event callback, an alternative to the
// Events channel. The callback runs on worker goroutines and must be fast.
func WithOnEvent(fn func(Event)) CampaignOption {
	return func(c *campaignConfig) { c.onEvent = fn }
}

// snapshotStats records the campaign-level snapshot measurements copied into
// every per-unit Result.
type snapshotStats struct {
	SnapshotDuration time.Duration
	SnapshotBytes    int
	SnapshotNodes    int
	InFlightMessages int
	FullStateBytes   int
}

// Campaign orchestrates DiCE exploration of one deployed cluster: a strategy
// plans (explorer, peer) units, a worker pool executes their clone runs in
// parallel over one shared consistent snapshot, and detections stream out as
// they are found. Construct with NewCampaign, subscribe with Events, then
// call Run once.
type Campaign struct {
	live *cluster.Cluster
	topo *topology.Topology
	cfg  campaignConfig

	em   emitter
	pool *pool

	// populated by Run
	snap      *checkpoint.Snapshot
	snapStats snapshotStats
	props     []checker.Property
	// clones is the pooled shadow-cluster runtime workers lease from (nil
	// when pooling is disabled, in which case every clone is a cold
	// FromSnapshot rebuild accounted in coldStats).
	clones *cluster.ClonePool
	// cloneBase is the shared pool's stats at campaign start (zero when the
	// campaign owns its pool): CloneStats reports the delta, so a shared
	// pool's earlier campaigns are not re-counted.
	cloneBase cluster.PoolStats
	coldMu    sync.Mutex
	coldStats cluster.PoolStats
	// fed is the federation runtime (nil in centralized campaigns).
	fed *fedState

	// testCloneFault, when set by fault-injecting tests, runs after every
	// successful clone lease; a returned error simulates an execution or
	// checking failure mid-clone.
	testCloneFault func() error
	// testRetainBusLog makes the federation bus retain every envelope so
	// the privacy test can re-serialize the exchanged traffic; off by
	// default, since an unbounded campaign would accumulate the log forever.
	testRetainBusLog bool

	// detSeen dedupes streamed detection events campaign-wide: a violation
	// already reported by another unit is a per-unit result, not news.
	detMu   sync.Mutex
	detSeen map[string]bool

	mu      sync.Mutex
	started bool
}

// emitDetection streams a detection event unless an equivalent violation was
// already streamed by any unit of this campaign.
func (c *Campaign) emitDetection(u Unit, idx int, d *Detection) {
	c.detMu.Lock()
	dup := c.detSeen[d.Violation.Key()]
	if !dup {
		c.detSeen[d.Violation.Key()] = true
	}
	c.detMu.Unlock()
	if !dup {
		c.em.emit(Event{Kind: EventDetection, Unit: u, UnitIndex: idx, Detection: d})
	}
}

// NewCampaign returns a campaign over the deployed cluster.
func NewCampaign(live *cluster.Cluster, topo *topology.Topology, opts ...CampaignOption) *Campaign {
	cfg := defaultCampaignConfig()
	for _, o := range opts {
		o(&cfg)
	}
	c := &Campaign{live: live, topo: topo, cfg: cfg, pool: newPool(cfg.workers), detSeen: make(map[string]bool)}
	c.em.callback = cfg.onEvent
	return c
}

// Events returns the campaign's event stream. Call it before Run and consume
// until the channel closes (Run closes it on return). Detections arrive as
// they are found, before Run returns.
func (c *Campaign) Events() <-chan Event {
	c.em.mu.Lock()
	defer c.em.mu.Unlock()
	if c.em.ch == nil {
		c.em.ch = make(chan Event, c.cfg.eventBuffer)
		if c.em.closed {
			// Run already finished: hand back a closed channel so a ranging
			// consumer terminates instead of blocking forever.
			close(c.em.ch)
		}
	}
	return c.em.ch
}

// ErrCampaignReused is returned when Run is called more than once.
var ErrCampaignReused = errors.New("dice: campaign already run; construct a new one")

// ErrNoDeployment is returned when a campaign has neither a live cluster to
// snapshot nor a pre-taken snapshot store (WithSnapshotStore) to explore.
var ErrNoDeployment = errors.New("dice: campaign requires a deployed cluster or a snapshot store")

// CampaignResult aggregates a finished (or cancelled) campaign.
type CampaignResult struct {
	// Strategy is the planning strategy's name.
	Strategy string
	// Workers is the worker-pool size the campaign ran with.
	Workers int

	// Snapshot measurements of the shared consistent cut.
	SnapshotDuration time.Duration
	SnapshotBytes    int
	SnapshotNodes    int
	InFlightMessages int
	// FullStateBytes is what a single full-state exchange would have cost,
	// for comparison with DisclosedBytes.
	FullStateBytes int

	// Units holds the per-unit results in plan order (nil entries for units
	// that failed or never ran). UnitErrors is parallel to Units.
	Units      []*Result
	UnitErrors []error

	// Detections is the merged detection list: per-unit detections
	// deduplicated by violation key, in plan order.
	Detections []Detection

	InputsExplored int
	DisclosedBytes int
	Duration       time.Duration
	// Cancelled reports that the caller's context ended the campaign early
	// (cancellation or a caller-imposed deadline); the result aggregates
	// whatever completed before that. Exhausting Budget.MaxDuration is NOT
	// cancellation — it sets BudgetExhausted instead.
	Cancelled bool
	// BudgetExhausted reports that the campaign stopped because its own
	// Budget.MaxDuration elapsed. That is a normal way for a budgeted
	// campaign to finish, so Run returns a nil error for it.
	BudgetExhausted bool

	// Federated reports whether the campaign ran under WithFederation.
	// Disclosed aggregates the checker.Summary traffic that crossed domain
	// boundaries, and Domains is the per-domain breakdown in partition
	// order. All three are zero in centralized campaigns.
	Federated bool
	Disclosed DisclosureStats
	Domains   []DomainResult

	// PooledClones reports whether the campaign ran on the pooled
	// shadow-cluster runtime; CloneStats breaks the clone lifecycle down
	// into cold rebuilds vs in-place resets with their cumulative cost.
	// With pooling enabled, ColdBuilds converges to the worker-pool size and
	// every further input is a reset.
	PooledClones bool
	CloneStats   cluster.PoolStats

	// Remote carries the distribution statistics of a campaign run under
	// WithRemoteExecution (nil otherwise). Detections, Disclosed and the
	// other aggregates above are computed by the same local machinery either
	// way — only where the clones ran differs.
	Remote *RemoteStats
}

// DetectionsByClass groups the merged detections by fault class.
func (r *CampaignResult) DetectionsByClass() map[checker.FaultClass][]Detection {
	out := make(map[checker.FaultClass][]Detection)
	for _, d := range r.Detections {
		out[d.Class] = append(out[d.Class], d)
	}
	return out
}

// FirstDetection returns the first merged detection of the class, or nil.
func (r *CampaignResult) FirstDetection(class checker.FaultClass) *Detection {
	for i := range r.Detections {
		if r.Detections[i].Class == class {
			return &r.Detections[i]
		}
	}
	return nil
}

// Detected reports whether any fault of the given class was found.
func (r *CampaignResult) Detected(class checker.FaultClass) bool {
	return r.FirstDetection(class) != nil
}

// planUnits asks the strategy for units (per domain, in a federated
// campaign) and fills in budget, fuzz seeds and per-unit seeds.
func (c *Campaign) planUnits() ([]Unit, error) {
	var units []Unit
	var err error
	if c.cfg.partition != nil {
		units, err = c.planFederatedUnits()
	} else {
		units, err = c.cfg.strategy.Plan(c.topo, c.cfg.explorers)
	}
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, errors.New("dice: strategy planned no units")
	}
	// The budget funds the units that do not pin MaxInputs themselves.
	unpinned, pinnedInputs := 0, 0
	for i := range units {
		if units[i].MaxInputs <= 0 {
			unpinned++
		} else {
			pinnedInputs += units[i].MaxInputs
		}
	}
	per, rem := 0, 0
	if c.cfg.budget.TotalInputs > 0 && unpinned > 0 {
		remaining := c.cfg.budget.TotalInputs - pinnedInputs
		if remaining < unpinned {
			remaining = unpinned // minimum one input per unit
		}
		per = remaining / unpinned
		rem = remaining % unpinned
	}
	nextShare := 0
	for i := range units {
		if units[i].MaxInputs <= 0 {
			n := 64
			if c.cfg.budget.TotalInputs > 0 {
				n = per
				if nextShare < rem {
					n++
				}
				nextShare++
			}
			units[i].MaxInputs = n
		}
		if units[i].FuzzSeeds <= 0 {
			units[i].FuzzSeeds = c.cfg.fuzzSeeds
		}
		if units[i].Seed == 0 {
			units[i].Seed = c.cfg.seed + int64(i)*1000003
		}
	}
	return units, nil
}

// Run executes the campaign: plan units, take one consistent snapshot, fan
// the units out over the worker pool, stream events, and aggregate. It
// honors ctx cancellation and deadlines: on caller-driven early termination
// it returns the partial result together with the context's error, with
// CampaignResult.Cancelled set. Exhausting Budget.MaxDuration is different —
// the budget belongs to the campaign, so running out of it is a normal
// completion: the partial result comes back with BudgetExhausted set and a
// nil error. Run may be called once per campaign.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if c.topo == nil {
		return nil, ErrNoTopology
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, ErrCampaignReused
	}
	c.started = true
	c.mu.Unlock()

	// The budget deadline is layered on top of the caller's context so the
	// two terminations stay distinguishable: parent.Err() reports the
	// caller's cancellation, ctx.Err() without a parent error reports budget
	// expiry. The expiry signal comes from a timer channel rather than
	// context.WithTimeout so tests can drive it deterministically.
	parent := ctx
	if c.cfg.budget.MaxDuration > 0 {
		budgetCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		if fire := c.cfg.budgetTimer; fire != nil {
			go func(ch <-chan time.Time) {
				select {
				case <-ch:
					cancel()
				case <-budgetCtx.Done():
				}
			}(fire(c.cfg.budget.MaxDuration))
		} else {
			// A real timer, stopped when the campaign finishes first so a
			// short campaign with a long budget leaves nothing pending.
			timer := time.NewTimer(c.cfg.budget.MaxDuration)
			go func() {
				defer timer.Stop()
				select {
				case <-timer.C:
					cancel()
				case <-budgetCtx.Done():
				}
			}()
		}
		ctx = budgetCtx
	}

	start := time.Now()
	c.em.start = start
	defer c.em.close()

	if c.cfg.partition != nil {
		fed, err := newFedState(c)
		if err != nil {
			return nil, err
		}
		c.fed = fed
	}
	units, err := c.planUnits()
	if err != nil {
		return nil, err
	}
	startEv := Event{Kind: EventCampaignStart, Units: len(units), Workers: c.cfg.workers}
	if c.fed != nil {
		startEv.Domains = len(c.fed.partition.Domains)
	}
	c.em.emit(startEv)

	// One consistent cut, shared by every unit: checkpoints are immutable
	// once taken, so concurrent clone restores need no copies. The cut is
	// decoded into a restore-ready store exactly once; workers then lease
	// pooled shadow clusters (or cold-rebuild, when pooling is off) from it.
	// A campaign constructed WithSnapshotStore explores a cut somebody else
	// already took and decoded — it never touches the live cluster.
	snapStart := time.Now()
	if c.cfg.store != nil {
		c.snap = c.cfg.store.Snapshot()
		if c.cfg.pooledClones && c.cfg.remote == nil {
			if c.cfg.clonePool != nil {
				c.clones = c.cfg.clonePool
				c.cloneBase = c.clones.Stats()
			} else {
				c.clones = cluster.NewClonePool(c.topo, c.cfg.store, c.cfg.clusterOptions)
			}
		}
		c.snapStats = snapshotStats{
			SnapshotNodes:    len(c.snap.Nodes),
			InFlightMessages: len(c.snap.InFlight),
		}
		if sizes, err := c.cfg.store.Sizes(); err == nil {
			c.snapStats.SnapshotBytes = sizes.TotalBytes
			// The store's baseline encodings are what a full-state exchange
			// would ship; the live cluster (possibly nil) stays untouched.
			c.snapStats.FullStateBytes = sizes.NodeBytes()
		}
	} else {
		if c.live == nil {
			return nil, ErrNoDeployment
		}
		c.snap = c.live.Snapshot()
		if c.cfg.pooledClones && c.cfg.remote == nil {
			store, err := checkpoint.NewStore(c.snap)
			if err != nil {
				return nil, err
			}
			c.clones = cluster.NewClonePool(c.topo, store, c.cfg.clusterOptions)
		}
		c.snapStats = snapshotStats{
			SnapshotDuration: time.Since(snapStart),
			SnapshotNodes:    len(c.snap.Nodes),
			InFlightMessages: len(c.snap.InFlight),
		}
		if sizes, err := checkpoint.Measure(c.snap); err == nil {
			c.snapStats.SnapshotBytes = sizes.TotalBytes
			c.snapStats.FullStateBytes = sizes.NodeBytes()
		}
	}
	c.props = c.cfg.properties
	if c.props == nil {
		c.props = checker.DefaultProperties(c.topo)
	}
	if c.fed != nil {
		if err := validateFederatedProps(c.props); err != nil {
			return nil, err
		}
	}
	c.em.emit(Event{Kind: EventSnapshot})

	results := make([]*Result, len(units))
	unitErrs := make([]error, len(units))
	var remoteErr error
	if c.cfg.remote != nil {
		// Validate and project the configuration onto the wire-shippable
		// spec, then hand the whole plan to the executor. Everything after —
		// merge, dedupe, federation aggregation — is the in-process path.
		spec, err := c.remoteSpec()
		if err != nil {
			return nil, err
		}
		remoteErr = c.runRemote(ctx, spec, units, results, unitErrs)
	} else {
		var wg sync.WaitGroup
		for i := range units {
			wg.Add(1)
			go func(i int, u Unit) {
				defer wg.Done()
				if ctx.Err() != nil {
					unitErrs[i] = ctx.Err()
					return
				}
				c.em.emit(Event{Kind: EventUnitStart, Unit: u, UnitIndex: i})
				r, err := c.runUnit(ctx, i, u)
				results[i], unitErrs[i] = r, err
				c.em.emit(Event{Kind: EventUnitEnd, Unit: u, UnitIndex: i, Result: r, Err: err})
			}(i, units[i])
		}
		wg.Wait()
	}

	res := &CampaignResult{
		Strategy:         c.cfg.strategy.Name(),
		Workers:          c.cfg.workers,
		SnapshotDuration: c.snapStats.SnapshotDuration,
		SnapshotBytes:    c.snapStats.SnapshotBytes,
		SnapshotNodes:    c.snapStats.SnapshotNodes,
		InFlightMessages: c.snapStats.InFlightMessages,
		FullStateBytes:   c.snapStats.FullStateBytes,
		Units:            results,
		UnitErrors:       unitErrs,
		Cancelled:        parent.Err() != nil,
		BudgetExhausted:  parent.Err() == nil && ctx.Err() != nil,
		PooledClones:     c.cfg.pooledClones && c.cfg.remote == nil,
	}
	c.coldMu.Lock()
	res.CloneStats = c.coldStats
	c.coldMu.Unlock()
	if c.clones != nil {
		res.CloneStats = res.CloneStats.Add(c.clones.Stats().Sub(c.cloneBase))
	}
	seen := make(map[string]bool)
	// detsByUnit counts the campaign-unique detections each unit contributed
	// first (plan order), feeding the federated per-domain attribution.
	detsByUnit := make([]int, len(results))
	for i, r := range results {
		if r == nil {
			continue
		}
		res.InputsExplored += r.InputsExplored
		res.DisclosedBytes += r.DisclosedBytes
		for _, d := range r.Detections {
			if seen[d.Violation.Key()] {
				continue
			}
			seen[d.Violation.Key()] = true
			res.Detections = append(res.Detections, d)
			detsByUnit[i]++
		}
	}
	if c.fed != nil {
		c.aggregateFederation(res, units, detsByUnit)
	}
	if c.cfg.remote != nil {
		stats := c.cfg.remote.RemoteStats()
		res.Remote = &stats
	}
	res.Duration = time.Since(start)
	c.em.emit(Event{Kind: EventCampaignEnd})

	var hard []error
	if remoteErr != nil {
		hard = append(hard, remoteErr)
	}
	for _, e := range unitErrs {
		if e != nil && !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) && !errors.Is(e, errRemoteAborted) {
			hard = append(hard, e)
		}
	}
	if err := errors.Join(hard...); err != nil {
		return res, err
	}
	// Caller cancellation is an error; budget expiry is a normal completion
	// (reported via res.BudgetExhausted).
	if err := parent.Err(); err != nil {
		return res, err
	}
	return res, nil
}
