package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checker"
)

// TraceStep is one injected message of a finding's replayable trace: a raw
// wire message delivered to a router as if sent by a peer. A finding's trace
// replays from a cold clone of its epoch: inject every step, run to
// quiescence, check — the violation reappears.
type TraceStep struct {
	// From and To name the session the message is delivered on.
	From, To string
	// Wire is the full wire message (header included).
	Wire []byte
}

// String renders the step compactly.
func (s TraceStep) String() string {
	return fmt.Sprintf("%s->%s (%d bytes)", s.From, s.To, len(s.Wire))
}

// cloneSteps deep-copies a trace.
func cloneSteps(steps []TraceStep) []TraceStep {
	out := make([]TraceStep, len(steps))
	for i, s := range steps {
		out[i] = TraceStep{From: s.From, To: s.To, Wire: append([]byte(nil), s.Wire...)}
	}
	return out
}

// Finding is one violation detected by the live runtime, with full per-epoch
// provenance: which epoch's state it was found in, which scenario primed the
// clone, which exploration unit and input surfaced it, and the minimized
// trace that reproduces it from a cold clone of that epoch.
type Finding struct {
	// Epoch is the checkpoint epoch the violation was detected in.
	Epoch int
	// Scenario is the scheduler scenario that primed the detecting clone.
	Scenario string
	// Explorer, FromPeer and Domain identify the exploration unit.
	Explorer, FromPeer, Domain string
	// InputIndex is the 1-based input number within the unit.
	InputIndex int
	// Class and Violation are the finding itself.
	Class     checker.FaultClass
	Violation checker.Violation
	// Elapsed is the wall-clock time from the start of the soak to the
	// detection.
	Elapsed time.Duration
	// Trace is the minimized replayable trace: scenario prelude plus explored
	// input, greedily shrunk to the steps the violation actually needs. An
	// empty trace means the violation is already present in the epoch's
	// captured state (a steady-state violation — no input required).
	Trace []TraceStep
	// TraceOriginal is the step count before minimization.
	TraceOriginal int
	// Reverified reports that the (minimized) trace was replayed against a
	// cold clone of the epoch — a full FromSnapshot rebuild, no pooling — and
	// reproduced the violation. The minimizer's trials run on the epoch's
	// pooled clone resets; this cold replay of the final trace is the one
	// check that shares nothing with them but the immutable snapshot.
	Reverified bool
}

// String renders the finding with its provenance.
func (f *Finding) String() string {
	return fmt.Sprintf("epoch %d [%s] %s<-%s input %d: %s (trace %d/%d steps, reverified %v)",
		f.Epoch, f.Scenario, f.Explorer, f.FromPeer, f.InputIndex, f.Violation, len(f.Trace), f.TraceOriginal, f.Reverified)
}

// Report is the live runtime's violation store. Findings are deduplicated by
// violation key across the whole soak: the first detection of a violation
// wins and keeps its provenance; later epochs re-detecting the same
// violation are not news.
//
// A Report is safe for concurrent use.
type Report struct {
	mu       sync.Mutex
	findings []*Finding
	byKey    map[string]*Finding
}

// NewReport returns an empty report.
func NewReport() *Report {
	return &Report{byKey: make(map[string]*Finding)}
}

// Add records the finding unless an equivalent violation is already stored;
// it reports whether the finding was new.
func (r *Report) Add(f *Finding) bool {
	key := f.Violation.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		return false
	}
	r.byKey[key] = f
	r.findings = append(r.findings, f)
	return true
}

// Len returns the number of stored findings.
func (r *Report) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.findings)
}

// Findings returns the stored findings in detection order.
func (r *Report) Findings() []*Finding {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Finding(nil), r.findings...)
}

// Find returns the finding for a violation key, or nil.
func (r *Report) Find(key string) *Finding {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byKey[key]
}

// ByClass groups the findings by fault class.
func (r *Report) ByClass() map[checker.FaultClass][]*Finding {
	out := make(map[checker.FaultClass][]*Finding)
	for _, f := range r.Findings() {
		out[f.Class] = append(out[f.Class], f)
	}
	return out
}

// ByScenario counts findings per scheduler scenario, sorted by name.
func (r *Report) ByScenario() []ScenarioCount {
	counts := make(map[string]int)
	for _, f := range r.Findings() {
		counts[f.Scenario]++
	}
	out := make([]ScenarioCount, 0, len(counts))
	for name, n := range counts {
		out = append(out, ScenarioCount{Scenario: name, Findings: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario < out[j].Scenario })
	return out
}

// ScenarioCount is one row of the per-scenario finding breakdown.
type ScenarioCount struct {
	Scenario string
	Findings int
}

// Detected reports whether any finding of the class is stored.
func (r *Report) Detected(class checker.FaultClass) bool {
	for _, f := range r.Findings() {
		if f.Class == class {
			return true
		}
	}
	return false
}
