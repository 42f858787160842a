package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/cluster"
)

// span is one traced interval: a call from the benchmark into a layer, or an
// interval the program reported through one of its callbacks. Spans of one
// explored input share its input id; parent links a span to the span that
// caused it (0: a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Input  int    `json:"input,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span now and returns its id.
func (t *tracer) open(name string, parent, input int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Input: input, Start: now, End: -1})
	return len(t.spans)
}

// close ends the span.
func (t *tracer) close(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a finished span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, input int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Input: input,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// finished returns a copy of every closed span.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// timings groups closed span durations by name, in milliseconds.
func (t *tracer) timings() map[string]*timing {
	out := make(map[string]*timing)
	for _, s := range t.finished() {
		tm := out[s.Name]
		if tm == nil {
			tm = &timing{}
			out[s.Name] = tm
		}
		tm.add(float64(s.duration()) / float64(time.Millisecond))
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration minus
// the part of its interval its child spans cover, in milliseconds. With
// child set, only spans that have a child of that name count.
func (t *tracer) selfTimes(name, child string) *timing {
	spans := t.finished()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := &timing{}
	for _, s := range spans {
		if s.Name != name || (child != "" && !hasChild(children[s.ID], child)) {
			continue
		}
		covered := coverage(s, children[s.ID])
		out.add(float64(s.duration()-covered) / float64(time.Millisecond))
	}
	return out
}

func hasChild(kids []span, name string) bool {
	for _, k := range kids {
		if k.Name == name {
			return true
		}
	}
	return false
}

// coverage is the length of the union of the children's intervals, clipped
// to the parent's.
func coverage(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, cur int64
	cur = parent.Start
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, parent.End)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines, creating the directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.finished() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedProperty wraps a checker.Property and records a span around every
// Check. The wrapper keeps the property's name, so campaign and soak
// configuration digests are unchanged.
type timedProperty struct {
	checker.Property
	tr     *tracer
	parent int
	input  int
	// checks and violations count evaluations and the violations they
	// reported.
	mu         *sync.Mutex
	checks     *int
	violations *int
}

func (p timedProperty) Check(c *cluster.Cluster) checker.Result {
	id := p.tr.open("checker."+p.Name(), p.parent, p.input)
	r := p.Property.Check(c)
	p.tr.close(id)
	p.mu.Lock()
	*p.checks++
	*p.violations += len(r.Violations)
	p.mu.Unlock()
	return r
}

// checkCounter tallies property evaluations across wrapped property sets.
type checkCounter struct {
	mu         sync.Mutex
	checks     int
	violations int
}

// wrap returns the properties wrapped to record spans under parent.
func (cc *checkCounter) wrap(props []checker.Property, tr *tracer, parent, input int) []checker.Property {
	out := make([]checker.Property, len(props))
	for i, p := range props {
		out[i] = timedProperty{Property: p, tr: tr, parent: parent, input: input, mu: &cc.mu, checks: &cc.checks, violations: &cc.violations}
	}
	return out
}

// perCheck returns violations per property evaluation.
func (cc *checkCounter) perCheck() float64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.checks == 0 {
		return 0
	}
	return float64(cc.violations) / float64(cc.checks)
}
