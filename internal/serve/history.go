package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/dice-project/dice/internal/checkpoint/codec"
	"github.com/dice-project/dice/internal/live"
)

// EpochRow is one epoch's persisted soak-history record: the checkpoint's
// costs and its exploration activity, scalar fields only (it crosses the
// daemon's JSON API, so privleak holds it to summary grade).
//
//dice:boundary
type EpochRow struct {
	// Soak numbers the soak run within the history (1-based, monotonically
	// increasing across daemon restarts); Seq is the epoch's ring sequence
	// within that soak.
	Soak int `json:"soak"`
	Seq  int `json:"seq"`
	// AtNS is the checkpoint's wall-clock time in Unix nanoseconds.
	AtNS int64 `json:"at_ns"`

	PauseNS    int64 `json:"pause_ns"`
	ProcessNS  int64 `json:"process_ns"`
	TrafficNS  int64 `json:"traffic_ns"`
	ExploreNS  int64 `json:"explore_ns"`
	OverBudget bool  `json:"over_budget"`
	Stride     int   `json:"stride"`

	Bytes        int `json:"bytes"`
	DeltaBytes   int `json:"delta_bytes"`
	NodesChanged int `json:"nodes_changed"`

	Campaigns   int `json:"campaigns"`
	Deduped     int `json:"deduped"`
	Inputs      int `json:"inputs"`
	InputsSaved int `json:"inputs_saved"`
	Paths       int `json:"paths"`
	PathsSaved  int `json:"paths_saved"`
	Findings    int `json:"findings"`
}

// ScenarioRow is one scenario's cumulative detection analytics across the
// whole history: how many findings it produced and the scheduler weight it
// ended the latest soak with.
//
//dice:boundary
type ScenarioRow struct {
	Name     string  `json:"name"`
	Findings int     `json:"findings"`
	Weight   float64 `json:"weight"`
}

// History is dice-serve's persisted soak record: per-epoch summary rows and
// per-scenario detection analytics, accumulated across soaks and daemon
// restarts. It encodes through the deterministic checkpoint codec
// (KindHistory artifacts), so identical history state always persists to
// identical bytes and a restart resumes the trendline exactly.
type History struct {
	// Soaks counts soak runs recorded (the next soak takes Soaks+1).
	Soaks     int
	Epochs    []EpochRow
	Scenarios []ScenarioRow // sorted by name
}

// AddEpoch appends one epoch's summary row for the given soak run.
func (h *History) AddEpoch(soak int, s live.EpochSummary) {
	h.Epochs = append(h.Epochs, EpochRow{
		Soak:         soak,
		Seq:          s.Seq,
		AtNS:         s.UnixNano,
		PauseNS:      int64(s.Pause),
		ProcessNS:    int64(s.Process),
		TrafficNS:    int64(s.Traffic),
		ExploreNS:    int64(s.Explore),
		OverBudget:   s.OverBudget,
		Stride:       s.Stride,
		Bytes:        s.Bytes,
		DeltaBytes:   s.DeltaBytes,
		NodesChanged: s.NodesChanged,
		Campaigns:    s.Campaigns,
		Deduped:      s.CampaignsDeduped,
		Inputs:       s.Inputs,
		InputsSaved:  s.InputsSaved,
		Paths:        s.Paths,
		PathsSaved:   s.PathsSaved,
		Findings:     s.Findings,
	})
}

// MergeScenario folds one scenario's latest analytics into the history:
// findings accumulate, the weight is replaced (it is the scheduler's current
// belief, not a counter). Rows stay sorted by name.
func (h *History) MergeScenario(name string, findings int, weight float64) {
	i := sort.Search(len(h.Scenarios), func(i int) bool { return h.Scenarios[i].Name >= name })
	if i < len(h.Scenarios) && h.Scenarios[i].Name == name {
		h.Scenarios[i].Findings += findings
		h.Scenarios[i].Weight = weight
		return
	}
	h.Scenarios = append(h.Scenarios, ScenarioRow{})
	copy(h.Scenarios[i+1:], h.Scenarios[i:])
	h.Scenarios[i] = ScenarioRow{Name: name, Findings: findings, Weight: weight}
}

// TrendPoint is one soak's aggregate in the cross-restart trendline.
//
//dice:boundary
type TrendPoint struct {
	Soak      int   `json:"soak"`
	Epochs    int   `json:"epochs"`
	Campaigns int   `json:"campaigns"`
	Deduped   int   `json:"deduped"`
	Inputs    int   `json:"inputs"`
	Findings  int   `json:"findings"`
	PauseNS   int64 `json:"pause_ns"`
	ExploreNS int64 `json:"explore_ns"`
}

// Trend aggregates the epoch rows per soak, in soak order — the BENCH-style
// trendline the JSON API serves and restarts must resume.
func (h *History) Trend() []TrendPoint {
	bySoak := make(map[int]*TrendPoint)
	var order []int
	for _, e := range h.Epochs {
		tp := bySoak[e.Soak]
		if tp == nil {
			tp = &TrendPoint{Soak: e.Soak}
			bySoak[e.Soak] = tp
			order = append(order, e.Soak)
		}
		tp.Epochs++
		tp.Campaigns += e.Campaigns
		tp.Deduped += e.Deduped
		tp.Inputs += e.Inputs
		tp.Findings += e.Findings
		tp.PauseNS += e.PauseNS
		tp.ExploreNS += e.ExploreNS
	}
	sort.Ints(order)
	out := make([]TrendPoint, 0, len(order))
	for _, soak := range order {
		out = append(out, *bySoak[soak])
	}
	return out
}

// Encode serializes the history as a KindHistory codec artifact. Epoch rows
// encode in stored order and scenario rows in their sorted order, so
// identical history state always yields identical bytes (the kill+restart
// byte-identity test depends on it).
func (h *History) Encode() []byte {
	w := codec.NewWriter()
	w.Header(codec.KindHistory)
	w.Uvarint(uint64(h.Soaks))

	mark := w.BeginSlab()
	w.Uvarint(uint64(len(h.Epochs)))
	for _, e := range h.Epochs {
		w.Uvarint(uint64(e.Soak))
		w.Uvarint(uint64(e.Seq))
		w.Varint(e.AtNS)
		w.Varint(e.PauseNS)
		w.Varint(e.ProcessNS)
		w.Varint(e.TrafficNS)
		w.Varint(e.ExploreNS)
		w.Bool(e.OverBudget)
		w.Uvarint(uint64(e.Stride))
		w.Uvarint(uint64(e.Bytes))
		w.Uvarint(uint64(e.DeltaBytes))
		w.Uvarint(uint64(e.NodesChanged))
		w.Uvarint(uint64(e.Campaigns))
		w.Uvarint(uint64(e.Deduped))
		w.Uvarint(uint64(e.Inputs))
		w.Uvarint(uint64(e.InputsSaved))
		w.Uvarint(uint64(e.Paths))
		w.Uvarint(uint64(e.PathsSaved))
		w.Uvarint(uint64(e.Findings))
	}
	w.EndSlab(mark)

	mark = w.BeginSlab()
	w.Uvarint(uint64(len(h.Scenarios)))
	for _, s := range h.Scenarios {
		w.String(s.Name)
		w.Uvarint(uint64(s.Findings))
		w.Uvarint(math.Float64bits(s.Weight))
	}
	w.EndSlab(mark)
	return w.Bytes()
}

// ErrNotHistory reports data that does not open with the codec magic — a
// foreign file the daemon must refuse rather than misparse.
var ErrNotHistory = errors.New("serve: not a codec soak-history artifact")

// DecodeHistory parses a KindHistory artifact.
func DecodeHistory(data []byte) (*History, error) {
	if !codec.IsEncoded(data) {
		return nil, ErrNotHistory
	}
	r := codec.NewReader(data)
	r.Header(codec.KindHistory)
	h := &History{Soaks: int(r.Uvarint())}

	end := r.BeginSlab()
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		var e EpochRow
		e.Soak = int(r.Uvarint())
		e.Seq = int(r.Uvarint())
		e.AtNS = r.Varint()
		e.PauseNS = r.Varint()
		e.ProcessNS = r.Varint()
		e.TrafficNS = r.Varint()
		e.ExploreNS = r.Varint()
		e.OverBudget = r.Bool()
		e.Stride = int(r.Uvarint())
		e.Bytes = int(r.Uvarint())
		e.DeltaBytes = int(r.Uvarint())
		e.NodesChanged = int(r.Uvarint())
		e.Campaigns = int(r.Uvarint())
		e.Deduped = int(r.Uvarint())
		e.Inputs = int(r.Uvarint())
		e.InputsSaved = int(r.Uvarint())
		e.Paths = int(r.Uvarint())
		e.PathsSaved = int(r.Uvarint())
		e.Findings = int(r.Uvarint())
		h.Epochs = append(h.Epochs, e)
	}
	r.EndSlab(end)

	end = r.BeginSlab()
	n = r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		var s ScenarioRow
		s.Name = r.String()
		s.Findings = int(r.Uvarint())
		s.Weight = math.Float64frombits(r.Uvarint())
		h.Scenarios = append(h.Scenarios, s)
	}
	r.EndSlab(end)

	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("serve: history: %w", err)
	}
	for i := 1; i < len(h.Scenarios); i++ {
		if h.Scenarios[i-1].Name >= h.Scenarios[i].Name {
			return nil, fmt.Errorf("serve: history: scenario rows not strictly sorted at %d", i)
		}
	}
	return h, nil
}
