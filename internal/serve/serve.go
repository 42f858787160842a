// Package serve implements the dice-serve daemon: the operational face of
// the live runtime. It holds one attached deployment, runs soaks against it
// on demand, exposes /healthz, Prometheus /metrics and a small JSON API
// (attach/detach, soak start/stop, findings, history, trace), and persists
// soak history through the deterministic checkpoint codec so a restarted
// daemon resumes its trendline exactly where the killed one stopped.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/live"
	"github.com/dice-project/dice/internal/obs"
	"github.com/dice-project/dice/internal/topology"
)

// Config parameterizes a Server.
type Config struct {
	// HistoryPath is the soak-history file (loaded at construction when it
	// exists, saved after every epoch). Empty disables persistence.
	HistoryPath string
	// TraceCapacity bounds the finished-span ring (4096 when unset).
	TraceCapacity int
	// Logf, when set, receives daemon progress lines.
	Logf func(format string, args ...any)
}

// attachment is the deployment the daemon soaks.
type attachment struct {
	name        string
	seed        int64
	topo        *topology.Topology
	cluster     *cluster.Cluster
	clusterOpts cluster.Options
	partition   *federation.Partition
}

// soakRun is one running (or finished) soak.
type soakRun struct {
	soak   int // 1-based soak number within the history
	rt     *live.Runtime
	cancel context.CancelFunc
	done   chan struct{}
	err    error

	// Span bookkeeping for the campaign event feed. Campaign events arrive
	// from the exploring goroutine and (unit events) from campaign workers,
	// so the maps take the soak's own lock.
	mu        sync.Mutex
	campaigns map[string]uint64 // "epoch/scenario" -> campaign span
	units     map[string]uint64 // "epoch/scenario/unitIndex" -> unit span
}

// Server is the dice-serve daemon state. Construct with New, expose
// Handler() on an http.Server.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tracer *obs.Tracer

	mu    sync.Mutex
	dep   *attachment
	soak  *soakRun
	hist  *History
	start time.Time
}

// New returns a daemon, loading prior soak history from cfg.HistoryPath when
// the file exists. A file that is not a KindHistory codec artifact is
// refused (ErrNotHistory) rather than silently replaced.
func New(cfg Config) (*Server, error) {
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 4096
	}
	s := &Server{
		cfg:    cfg,
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(cfg.TraceCapacity),
		hist:   &History{},
		start:  time.Now(),
	}
	if cfg.HistoryPath != "" {
		data, err := os.ReadFile(cfg.HistoryPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run: empty history.
		case err != nil:
			return nil, fmt.Errorf("serve: read history: %w", err)
		default:
			h, err := DecodeHistory(data)
			if err != nil {
				return nil, fmt.Errorf("serve: %s: %w", cfg.HistoryPath, err)
			}
			s.hist = h
			s.logf("serve: resumed history: %d soaks, %d epoch rows", h.Soaks, len(h.Epochs))
		}
	}
	s.registerMetrics()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// runtime returns the current soak's runtime, nil when idle — the nil-safe
// seam every metrics collector reads through, so the registry is populated
// once at construction and re-points across soaks without re-registration.
func (s *Server) runtime() *live.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.soak == nil {
		return nil
	}
	return s.soak.rt
}

// registerMetrics wires every subsystem's series plus the daemon's own.
func (s *Server) registerMetrics() {
	live.RegisterMetrics(s.reg, s.runtime)
	s.reg.GaugeFunc("dice_serve_attached", "1 when a deployment is attached.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.dep != nil {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("dice_serve_soak_running", "1 while a soak is executing.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.soakRunningLocked() {
				return 1
			}
			return 0
		})
	s.reg.CounterFunc("dice_serve_soaks_total", "Soak runs recorded in the history (survives restarts).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.hist.Soaks)
		})
	s.reg.GaugeFunc("dice_serve_history_epochs", "Epoch rows in the persisted soak history.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.hist.Epochs))
		})
	s.reg.CounterVecFunc("dice_serve_spans_total", "Finished trace spans by kind.", "kind",
		func() map[string]float64 {
			out := make(map[string]float64)
			for k, v := range s.tracer.Counts() {
				out[string(k)] = float64(v)
			}
			return out
		})
}

// Registry exposes the daemon's metrics registry (tests scrape it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the daemon's span tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// History returns a deep-enough copy of the current soak history.
func (s *Server) History() History {
	s.mu.Lock()
	defer s.mu.Unlock()
	return History{
		Soaks:     s.hist.Soaks,
		Epochs:    append([]EpochRow(nil), s.hist.Epochs...),
		Scenarios: append([]ScenarioRow(nil), s.hist.Scenarios...),
	}
}

// soakRunningLocked reports whether a soak is still executing; caller holds
// s.mu.
func (s *Server) soakRunningLocked() bool {
	if s.soak == nil {
		return false
	}
	select {
	case <-s.soak.done:
		return false
	default:
		return true
	}
}

// AttachRequest is the attach endpoint's body. Deployment currently selects
// the built-in 27-router demo ("demo27"); PlantFaults injects the demo's
// mis-origination and missing-import-filter faults (default true — a soak
// that can find something). Federated splits the deployment into per-AS
// administrative domains so campaigns disclose only summaries across them.
//
//dice:boundary
type AttachRequest struct {
	Deployment  string `json:"deployment"`
	Seed        int64  `json:"seed"`
	PlantFaults *bool  `json:"plant_faults,omitempty"`
	Federated   *bool  `json:"federated,omitempty"`
	MaxEvents   int    `json:"max_events,omitempty"`
}

// Attach builds and converges the named deployment. Fails when one is
// already attached (detach first) — the daemon serves one deployment.
func (s *Server) Attach(req AttachRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dep != nil {
		return errors.New("serve: a deployment is already attached")
	}
	if s.soakRunningLocked() {
		return errors.New("serve: a soak is still running")
	}
	if req.Deployment == "" {
		req.Deployment = "demo27"
	}
	if req.Deployment != "demo27" {
		return fmt.Errorf("serve: unknown deployment %q (have: demo27)", req.Deployment)
	}
	topo := topology.Demo27()
	opts := cluster.Options{Seed: req.Seed, MaxEvents: req.MaxEvents}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 300000
	}
	if req.PlantFaults == nil || *req.PlantFaults {
		victim := topo.Nodes[26].Prefixes[0]
		opts.ConfigOverride = faults.ApplyConfigFaults(
			faults.MisOrigination{Router: "R12", Prefix: victim},
			faults.MissingImportFilter{Router: "R1", Peer: "R4"},
		)
	}
	dep, err := cluster.Build(topo, opts)
	if err != nil {
		return fmt.Errorf("serve: deploy: %w", err)
	}
	dep.Converge()
	att := &attachment{
		name:        req.Deployment,
		seed:        req.Seed,
		topo:        topo,
		cluster:     dep,
		clusterOpts: opts,
	}
	if req.Federated == nil || *req.Federated {
		att.partition = federation.PartitionByAS(topo)
	}
	s.dep = att
	s.logf("serve: attached %s (seed %d, %d routers, federated=%v)",
		att.name, att.seed, len(topo.Nodes), att.partition != nil)
	return nil
}

// Detach drops the attached deployment. Fails while a soak is running.
func (s *Server) Detach() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dep == nil {
		return errors.New("serve: nothing attached")
	}
	if s.soakRunningLocked() {
		return errors.New("serve: a soak is still running; stop it first")
	}
	s.dep = nil
	s.soak = nil
	s.logf("serve: detached")
	return nil
}

// SoakRequest parameterizes one soak run against the attached deployment.
//
//dice:boundary
type SoakRequest struct {
	Epochs            int  `json:"epochs"`
	InputsPerScenario int  `json:"inputs_per_scenario,omitempty"`
	ScenariosPerEpoch int  `json:"scenarios_per_epoch,omitempty"`
	FuzzSeeds         int  `json:"fuzz_seeds,omitempty"`
	Workers           int  `json:"workers,omitempty"`
	Overlap           bool `json:"overlap,omitempty"`
}

// StartSoak launches a soak on the attached deployment. The soak runs on its
// own goroutine; findings, history rows and spans stream out as it runs.
func (s *Server) StartSoak(req SoakRequest) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dep == nil {
		return 0, errors.New("serve: attach a deployment first")
	}
	if s.soakRunningLocked() {
		return 0, errors.New("serve: a soak is already running")
	}
	if req.Epochs <= 0 {
		req.Epochs = 4
	}
	if req.InputsPerScenario <= 0 {
		req.InputsPerScenario = 8
	}

	s.hist.Soaks++
	run := &soakRun{
		soak:      s.hist.Soaks,
		done:      make(chan struct{}),
		campaigns: make(map[string]uint64),
		units:     make(map[string]uint64),
	}
	att := s.dep
	opts := live.Options{
		Seed:              att.seed,
		ClusterOptions:    att.clusterOpts,
		MaxEpochs:         req.Epochs,
		InputsPerScenario: req.InputsPerScenario,
		ScenariosPerEpoch: req.ScenariosPerEpoch,
		FuzzSeeds:         req.FuzzSeeds,
		Workers:           req.Workers,
		Overlap:           req.Overlap,
		Explorers:         []string{"R1"},
		Partition:         att.partition,
		Trace:             func(line string) { s.logf("soak %d: %s", run.soak, line) },
		OnEpoch: func(sum live.EpochSummary) {
			s.onEpoch(run, sum)
		},
		OnCampaignEvent: func(epoch int, scenario string, ev dice.Event) {
			s.onCampaignEvent(run, epoch, scenario, ev)
		},
	}
	rt, err := live.NewRuntime(att.cluster, att.topo, opts)
	if err != nil {
		s.hist.Soaks--
		return 0, err
	}
	run.rt = rt
	ctx, cancel := context.WithCancel(context.Background())
	run.cancel = cancel
	s.soak = run
	s.logf("serve: soak %d started (%d epochs)", run.soak, req.Epochs)

	go func() {
		defer close(run.done)
		defer cancel()
		_, err := rt.Run(ctx)
		run.err = err
		s.finishSoak(run)
	}()
	return run.soak, nil
}

// onEpoch persists one epoch row and records its span.
func (s *Server) onEpoch(run *soakRun, sum live.EpochSummary) {
	start := time.Unix(0, sum.UnixNano)
	s.tracer.Record(obs.SpanEpoch, fmt.Sprintf("epoch-%d", sum.Seq), 0,
		start, start.Add(sum.Pause+sum.Process+sum.Explore))
	s.mu.Lock()
	s.hist.AddEpoch(run.soak, sum)
	s.mu.Unlock()
	s.saveHistory()
}

// onCampaignEvent turns the campaign event stream into campaign → unit →
// input spans. Unit events arrive from campaign workers concurrently; the
// soak's own lock guards the span maps.
func (s *Server) onCampaignEvent(run *soakRun, epoch int, scenario string, ev dice.Event) {
	ck := fmt.Sprintf("%d/%s", epoch, scenario)
	run.mu.Lock()
	defer run.mu.Unlock()
	switch ev.Kind {
	case dice.EventCampaignStart:
		run.campaigns[ck] = s.tracer.Begin(obs.SpanCampaign, fmt.Sprintf("epoch-%d/%s", epoch, scenario), 0)
	case dice.EventUnitStart:
		uk := fmt.Sprintf("%s/%d", ck, ev.UnitIndex)
		run.units[uk] = s.tracer.Begin(obs.SpanUnit,
			fmt.Sprintf("epoch-%d/%s/%s<-%s", epoch, scenario, ev.Unit.Explorer, ev.Unit.FromPeer), run.campaigns[ck])
	case dice.EventDetection:
		if ev.Detection != nil {
			uk := fmt.Sprintf("%s/%d", ck, ev.UnitIndex)
			now := time.Now()
			s.tracer.Record(obs.SpanInput,
				fmt.Sprintf("epoch-%d/%s/input-%d", epoch, scenario, ev.Detection.InputIndex),
				run.units[uk], now, now)
		}
	case dice.EventUnitEnd:
		uk := fmt.Sprintf("%s/%d", ck, ev.UnitIndex)
		if id, ok := run.units[uk]; ok {
			s.tracer.End(id)
			delete(run.units, uk)
		}
	case dice.EventCampaignEnd:
		if id, ok := run.campaigns[ck]; ok {
			s.tracer.End(id)
			delete(run.campaigns, ck)
		}
	}
}

// finishSoak folds the ended soak's scenario analytics into the history and
// saves it.
func (s *Server) finishSoak(run *soakRun) {
	weights := run.rt.Scheduler().Weights()
	perScenario := make(map[string]int)
	for _, f := range run.rt.Report().Findings() {
		perScenario[f.Scenario]++
	}
	s.mu.Lock()
	for name, w := range weights {
		s.hist.MergeScenario(name, perScenario[name], w)
	}
	s.mu.Unlock()
	s.saveHistory()
	s.logf("serve: soak %d finished (%d findings, err=%v)",
		run.soak, run.rt.Report().Len(), run.err)
}

// StopSoak cancels the running soak and waits for it to wind down.
func (s *Server) StopSoak() error {
	s.mu.Lock()
	run := s.soak
	s.mu.Unlock()
	if run == nil {
		return errors.New("serve: no soak to stop")
	}
	run.cancel()
	<-run.done
	return nil
}

// saveHistory atomically persists the history file, so a kill or a crash
// mid-save never corrupts the trendline.
func (s *Server) saveHistory() {
	if s.cfg.HistoryPath == "" {
		return
	}
	s.mu.Lock()
	data := s.hist.Encode()
	s.mu.Unlock()
	if err := writeFileAtomic(s.cfg.HistoryPath, data); err != nil {
		s.logf("serve: save history: %v", err)
	}
}

// writeFileAtomic replaces path with data so that a crash at any point
// leaves either the old or the new contents in place: the data goes to a
// temporary file that is synced and closed, the file is renamed over path,
// and the directory is synced so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// FindingSummary is a finding projected to summary grade for the JSON API:
// full (epoch, scenario, unit, input) provenance, violation key and rendered
// description — never trace wire bytes or node state.
//
//dice:boundary
type FindingSummary struct {
	Epoch         int    `json:"epoch"`
	Scenario      string `json:"scenario"`
	Explorer      string `json:"explorer"`
	FromPeer      string `json:"from_peer"`
	Domain        string `json:"domain,omitempty"`
	InputIndex    int    `json:"input_index"`
	Class         string `json:"class"`
	Key           string `json:"key"`
	Violation     string `json:"violation"`
	ElapsedNS     int64  `json:"elapsed_ns"`
	TraceSteps    int    `json:"trace_steps"`
	TraceOriginal int    `json:"trace_original"`
	Reverified    bool   `json:"reverified"`
}

// Findings returns the current soak report's findings, summary grade, in
// report order.
func (s *Server) Findings() []FindingSummary {
	rt := s.runtime()
	if rt == nil {
		return nil
	}
	findings := rt.Report().Findings()
	out := make([]FindingSummary, 0, len(findings))
	for _, f := range findings {
		out = append(out, FindingSummary{
			Epoch:         f.Epoch,
			Scenario:      f.Scenario,
			Explorer:      f.Explorer,
			FromPeer:      f.FromPeer,
			Domain:        f.Domain,
			InputIndex:    f.InputIndex,
			Class:         f.Class.String(),
			Key:           f.Violation.Key(),
			Violation:     f.Violation.String(),
			ElapsedNS:     int64(f.Elapsed),
			TraceSteps:    len(f.Trace),
			TraceOriginal: f.TraceOriginal,
			Reverified:    f.Reverified,
		})
	}
	return out
}

// StatusReply is the status endpoint's body.
//
//dice:boundary
type StatusReply struct {
	Attached    bool   `json:"attached"`
	Deployment  string `json:"deployment,omitempty"`
	Federated   bool   `json:"federated"`
	SoakRunning bool   `json:"soak_running"`
	Soak        int    `json:"soak,omitempty"`
	Soaks       int    `json:"soaks"`
	Epochs      int    `json:"epochs"`
	Findings    int    `json:"findings"`
	UptimeNS    int64  `json:"uptime_ns"`
}

// Status reports the daemon's current state.
func (s *Server) Status() StatusReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StatusReply{
		Attached:    s.dep != nil,
		SoakRunning: s.soakRunningLocked(),
		Soaks:       s.hist.Soaks,
		UptimeNS:    int64(time.Since(s.start)),
	}
	if s.dep != nil {
		st.Deployment = s.dep.name
		st.Federated = s.dep.partition != nil
	}
	if s.soak != nil {
		st.Soak = s.soak.soak
		stats := s.soak.rt.Stats()
		st.Epochs = stats.Epochs
		st.Findings = stats.Findings
	}
	return st
}

// SpanReply is one span in the trace endpoint's body.
//
//dice:boundary
type SpanReply struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns,omitempty"`
}

func spanReply(sp obs.Span) SpanReply {
	r := SpanReply{
		ID:      sp.ID,
		Parent:  sp.Parent,
		Kind:    string(sp.Kind),
		Name:    sp.Name,
		StartNS: sp.Start.UnixNano(),
	}
	if !sp.End.IsZero() {
		r.EndNS = sp.End.UnixNano()
	}
	return r
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Status()
		replyJSON(w, map[string]any{
			"status":       "ok",
			"attached":     st.Attached,
			"soak_running": st.SoakRunning,
			"soaks":        st.Soaks,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("POST /api/v1/attach", func(w http.ResponseWriter, r *http.Request) {
		var req AttachRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Attach(req); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		replyJSON(w, s.Status())
	})
	mux.HandleFunc("POST /api/v1/detach", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Detach(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		replyJSON(w, s.Status())
	})
	mux.HandleFunc("POST /api/v1/soak/start", func(w http.ResponseWriter, r *http.Request) {
		var req SoakRequest
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		soak, err := s.StartSoak(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		replyJSON(w, map[string]any{"soak": soak})
	})
	mux.HandleFunc("POST /api/v1/soak/stop", func(w http.ResponseWriter, r *http.Request) {
		if err := s.StopSoak(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		replyJSON(w, s.Status())
	})
	mux.HandleFunc("GET /api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		replyJSON(w, s.Status())
	})
	mux.HandleFunc("GET /api/v1/findings", func(w http.ResponseWriter, r *http.Request) {
		findings := s.Findings()
		if findings == nil {
			findings = []FindingSummary{}
		}
		replyJSON(w, findings)
	})
	mux.HandleFunc("GET /api/v1/history", func(w http.ResponseWriter, r *http.Request) {
		h := s.History()
		replyJSON(w, map[string]any{
			"soaks":     h.Soaks,
			"epochs":    h.Epochs,
			"scenarios": h.Scenarios,
			"trend":     h.Trend(),
		})
	})
	mux.HandleFunc("GET /api/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		active := s.tracer.Active()
		finished := s.tracer.Snapshot()
		reply := struct {
			Active   []SpanReply       `json:"active"`
			Finished []SpanReply       `json:"finished"`
			Counts   map[string]uint64 `json:"counts"`
		}{Counts: make(map[string]uint64)}
		for _, sp := range active {
			reply.Active = append(reply.Active, spanReply(sp))
		}
		for _, sp := range finished {
			reply.Finished = append(reply.Finished, spanReply(sp))
		}
		for k, v := range s.tracer.Counts() {
			reply.Counts[string(k)] = v
		}
		replyJSON(w, reply)
	})
	return mux
}

func replyJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
