package dice

import (
	"context"
	"strings"
	"testing"
)

var quickCfg = ExperimentConfig{Quick: true, Seed: 1}

func TestFacadeDeployAndCheck(t *testing.T) {
	topo := Line(3)
	d, err := Deploy(topo, DeployOptions{Seed: 1})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	d.Converge()
	if v := CheckDeployment(d, DefaultProperties(topo)); len(v) != 0 {
		t.Fatalf("healthy deployment reported violations: %v", v)
	}
	dur, size, err := ConvergeAndSnapshotSize(d)
	if err != nil || size == 0 || dur < 0 {
		t.Errorf("snapshot measurement broken: %v %d %v", dur, size, err)
	}
}

func TestFacadeCampaignStreamsDetections(t *testing.T) {
	topo := Line(3)
	victim := topo.Nodes[0].Prefixes[0]
	opts := DeployOptions{Seed: 1, ConfigOverride: ApplyConfigFaults(MisOrigination{Router: "R3", Prefix: victim})}
	d, err := Deploy(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Converge()

	campaign := NewCampaign(d, topo,
		WithStrategy(AllNodesStrategy{}),
		WithBudget(Budget{TotalInputs: 12}),
		WithSeed(1),
		WithClusterOptions(opts),
		WithWorkers(2))
	events := campaign.Events()
	streamed := make(chan int, 1)
	go func() {
		n := 0
		for ev := range events {
			if ev.Kind == EventDetection {
				n++
			}
		}
		streamed <- n
	}()
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatalf("campaign Run: %v", err)
	}
	if !res.Detected(OperatorMistake) {
		t.Fatalf("hijack not detected through the campaign API")
	}
	if n := <-streamed; n == 0 || n != len(res.Detections) {
		t.Errorf("streamed %d detection events, want %d (one per merged detection)", n, len(res.Detections))
	}
	if res.Strategy != "all-nodes" || len(res.Units) != 3 {
		t.Errorf("campaign plan wrong: strategy=%s units=%d", res.Strategy, len(res.Units))
	}
}

func TestRunE8Quick(t *testing.T) {
	res, err := RunE8(quickCfg)
	if err != nil {
		t.Fatalf("RunE8: %v", err)
	}
	if res.Routers != 27 || res.Units != 27 {
		t.Errorf("E8 should sweep all 27 routers: %+v", res)
	}
	if !res.SameDetections {
		t.Errorf("serial and parallel campaigns must find the same detections")
	}
	if res.SerialDuration <= 0 || res.ParallelDuration <= 0 || res.Speedup <= 0 {
		t.Errorf("timing accounting missing: %+v", res)
	}
	if res.Detections == 0 || res.DetectionsStreamed != res.Detections {
		t.Errorf("streamed %d detections, merged %d — should match", res.DetectionsStreamed, res.Detections)
	}
	if !strings.Contains(res.String(), "campaign scaling") {
		t.Errorf("report rendering broken")
	}
}

func TestRunE1Quick(t *testing.T) {
	res, err := RunE1(quickCfg)
	if err != nil {
		t.Fatalf("RunE1: %v", err)
	}
	if res.Routers != 27 {
		t.Errorf("demo must use 27 routers, got %d", res.Routers)
	}
	if !res.DetectedClasses["operator-mistake"] {
		t.Errorf("demo run should detect at least the operator mistake; got %v", res.Detections)
	}
	if !strings.Contains(res.String(), "27 routers") {
		t.Errorf("report rendering broken")
	}
}

func TestRunE2Quick(t *testing.T) {
	res, err := RunE2(quickCfg)
	if err != nil {
		t.Fatalf("RunE2: %v", err)
	}
	if !res.LiveStateUntouched {
		t.Errorf("exploration must not perturb the deployed system")
	}
	if res.ClonesCreated == 0 || res.SnapshotBytes == 0 {
		t.Errorf("workflow accounting incomplete: %+v", res)
	}
	if res.String() == "" {
		t.Errorf("report rendering broken")
	}
}

func TestRunE3Quick(t *testing.T) {
	rows, err := RunE3(quickCfg)
	if err != nil {
		t.Fatalf("RunE3: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("quick E3 should produce 3 rows, got %d", len(rows))
	}
	classes := map[string]bool{}
	for _, r := range rows {
		classes[r.Class] = true
	}
	for _, want := range []string{"operator-mistake", "programming-error", "policy-conflict"} {
		if !classes[want] {
			t.Errorf("E3 missing class %s", want)
		}
	}
	if FormatE3(rows) == "" {
		t.Errorf("E3 formatting broken")
	}
}

func TestRunE4Quick(t *testing.T) {
	res, err := RunE4(quickCfg)
	if err != nil {
		t.Fatalf("RunE4: %v", err)
	}
	if res.BaselinePerUpdate <= 0 || res.InstrumentedPerUpdate <= 0 {
		t.Errorf("per-update timing missing: %+v", res)
	}
	if res.CheckpointBytesNode <= 0 || res.SnapshotTotalBytes <= 0 {
		t.Errorf("checkpoint accounting missing: %+v", res)
	}
	if res.String() == "" {
		t.Errorf("report rendering broken")
	}
}

func TestRunE5Quick(t *testing.T) {
	rows, err := RunE5(quickCfg)
	if err != nil {
		t.Fatalf("RunE5: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("E5 should compare 3 modes")
	}
	var combined *E5Row
	for i := range rows {
		if rows[i].Mode == "concolic+fuzzing" {
			combined = &rows[i]
		}
	}
	if combined == nil || !combined.FoundBug {
		t.Errorf("combined exploration should find the guarded bug: %+v", rows)
	}
	if FormatE5(rows) == "" {
		t.Errorf("E5 formatting broken")
	}
}

func TestRunE6Quick(t *testing.T) {
	res, err := RunE6(quickCfg)
	if err != nil {
		t.Fatalf("RunE6: %v", err)
	}
	if res.ValidRatio != 1.0 {
		t.Errorf("grammar-based generation should be 100%% valid, got %.3f", res.ValidRatio)
	}
	if res.MutatedRatio >= 1.0 {
		t.Errorf("mutated generation should include invalid messages")
	}
	if res.MeanBodyBytes <= 0 || res.String() == "" {
		t.Errorf("fuzzer metrics incomplete: %+v", res)
	}
}

func TestRunE7Quick(t *testing.T) {
	res, err := RunE7(quickCfg)
	if err != nil {
		t.Fatalf("RunE7: %v", err)
	}
	if !res.BothDetectHijack {
		t.Errorf("hijack should be detectable through the narrow interface")
	}
	if res.ReductionFactor <= 1 {
		t.Errorf("narrow interface should disclose less than full state (factor %.1f)", res.ReductionFactor)
	}
	if res.String() == "" {
		t.Errorf("report rendering broken")
	}
}

func TestRunE10Quick(t *testing.T) {
	res, err := RunE10(quickCfg)
	if err != nil {
		t.Fatalf("RunE10: %v", err)
	}
	if res.Routers != 27 || res.Domains != 27 {
		t.Errorf("E10 should federate the demo per AS: %+v", res)
	}
	if !res.SameDetections {
		t.Errorf("federated campaign must find exactly the centralized detections")
	}
	if res.Detections == 0 {
		t.Errorf("campaign found nothing")
	}
	if res.Summaries == 0 || res.SummaryBytes == 0 {
		t.Errorf("federated run disclosed nothing: %+v", res)
	}
	if res.ReductionVsFullState <= 1 {
		t.Errorf("per-input summary traffic should undercut full-state sharing (%.1fx)", res.ReductionVsFullState)
	}
	if !strings.Contains(res.String(), "federated vs centralized") {
		t.Errorf("report rendering broken")
	}
}

func TestRunE11Quick(t *testing.T) {
	res, err := RunE11(quickCfg)
	if err != nil {
		t.Fatalf("RunE11: %v", err)
	}
	if res.Routers != 27 || res.Implementations["bird"] != 12 || res.Implementations["frr"] != 15 {
		t.Errorf("E11 should mix 12 bird + 15 frr routers: %+v", res.Implementations)
	}
	if res.Divergences == 0 || len(res.DivergentNodes) == 0 {
		t.Fatalf("mixed campaign found no implementation divergences")
	}
	if !res.SteadyStateDivergence {
		t.Errorf("seeded divergence must already hold in the converged deployment")
	}
	if !res.SameSafetyClasses {
		t.Errorf("heterogeneity must not mask a fault class")
	}
	if res.SafetyDetections == 0 {
		t.Errorf("mixed campaign found no safety detections")
	}
	if !res.DivergenceExplainsDiffs {
		t.Errorf("%d safety detections moved to nodes the divergence checker did not flag", res.SafetyDiffering)
	}
	if !strings.Contains(res.String(), "heterogeneous backends") {
		t.Errorf("report rendering broken")
	}
}

func TestRunE14Quick(t *testing.T) {
	res, err := RunE14(quickCfg)
	if err != nil {
		t.Fatalf("RunE14: %v", err)
	}
	if res.Routers != 27 || len(res.Implementations) != 3 {
		t.Fatalf("E14 should run a three-way 27-router mix: %+v", res.Implementations)
	}
	if res.Implementations["bird"] == 0 || res.Implementations["obgpd"] == 0 || res.Implementations["frr"] == 0 {
		t.Errorf("a backend is missing from the mix: %+v", res.Implementations)
	}
	if res.Divergences == 0 || len(res.DivergentNodes) == 0 {
		t.Fatalf("three-way campaign found no implementation divergences")
	}
	if res.MajorityOutvoted+res.PairwiseLegal != res.Divergences {
		t.Errorf("vote classes don't partition the divergences: %d + %d != %d",
			res.MajorityOutvoted, res.PairwiseLegal, res.Divergences)
	}
	if res.MajorityOutvoted == 0 {
		t.Errorf("no divergence classified as majority-outvoted (2-vs-1)")
	}
	if !res.DeterministicDivergence {
		t.Errorf("re-running the mixed campaign changed the divergence set")
	}
	if !res.SteadyStateDivergence {
		t.Errorf("seeded divergence must already hold in the converged deployment")
	}
	if !res.SameSafetyClasses {
		t.Errorf("three-way heterogeneity must not mask a fault class")
	}
	if !res.DivergenceExplainsDiffs {
		t.Errorf("%d safety detections moved to nodes the divergence checker did not flag", res.SafetyDiffering)
	}
	if res.ProcChecked {
		if !res.ProcSameDetections {
			t.Errorf("proc:obgpd campaign detections differ from in-process obgpd")
		}
	} else if res.ProcSkipReason == "" {
		t.Errorf("process-isolation leg skipped without a recorded reason")
	}
	if !strings.Contains(res.String(), "three-way differential conformance") {
		t.Errorf("report rendering broken")
	}
}

func TestRunE12Quick(t *testing.T) {
	res, err := RunE12(quickCfg)
	if err != nil {
		t.Fatalf("E12: %v", err)
	}
	if res.Epochs < 2 {
		t.Fatalf("soak took %d epochs, want >= 2", res.Epochs)
	}
	if res.Findings == 0 || !res.DetectedClasses["operator-mistake"] {
		t.Fatalf("live soak missed the planted mis-origination: %+v", res)
	}
	if res.FirstDetectionEpoch < 1 || res.FirstDetectionEpoch > 2 {
		t.Errorf("first detection in epoch %d, want within the first two", res.FirstDetectionEpoch)
	}
	if !res.AllReverified {
		t.Errorf("not every finding's minimized trace re-reproduced from a cold clone")
	}
	if res.TraceStepsAfter > res.TraceStepsBefore {
		t.Errorf("minimization grew traces: %d -> %d", res.TraceStepsBefore, res.TraceStepsAfter)
	}
	if res.CampaignsDeduped == 0 || res.InputsSaved == 0 {
		t.Errorf("idle epochs not deduped: %+v", res)
	}
	if res.SnapshotBytesPerEpoch <= 0 || res.DeltaBytesPerEpoch <= 0 {
		t.Errorf("epoch footprint not measured: %+v", res)
	}
	if res.DeltaBytesPerEpoch >= res.SnapshotBytesPerEpoch {
		t.Errorf("delta measurement not smaller than full: %d vs %d", res.DeltaBytesPerEpoch, res.SnapshotBytesPerEpoch)
	}
	if s := res.String(); !strings.Contains(s, "E12") || !strings.Contains(s, "dedupe") {
		t.Errorf("report rendering broken:\n%s", s)
	}
}

func TestRunE9Quick(t *testing.T) {
	res, err := RunE9(ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("RunE9: %v", err)
	}
	if res.Routers != 27 {
		t.Errorf("routers = %d, want 27", res.Routers)
	}
	if res.CloneSpeedup < 1 {
		t.Errorf("pooled reset slower than cold rebuild: %.2fx", res.CloneSpeedup)
	}
	if !res.SameDetections {
		t.Errorf("pooled campaign found different detections than cold campaign")
	}
	if res.Detections == 0 {
		t.Errorf("campaign found nothing")
	}
	if res.PooledColdBuilds < 1 || res.PooledResets == 0 {
		t.Errorf("pooled campaign lifecycle stats %d cold / %d resets", res.PooledColdBuilds, res.PooledResets)
	}
	if res.MeanDeltaBytes <= 0 || res.MeanDeltaBytes >= res.MeanNodeBytes {
		t.Errorf("delta accounting %d of %d bytes; want a real saving", res.MeanDeltaBytes, res.MeanNodeBytes)
	}
	if res.String() == "" {
		t.Errorf("empty report")
	}
}

func TestRunE13Quick(t *testing.T) {
	res, err := RunE13(quickCfg)
	if err != nil {
		t.Fatalf("E13: %v", err)
	}
	if !res.SameDetectionsOneAgent || !res.SameDetectionsThreeAgents {
		t.Fatalf("distributed runs diverged from in-process: 1-agent same=%v 3-agent same=%v",
			res.SameDetectionsOneAgent, res.SameDetectionsThreeAgents)
	}
	if res.Detections == 0 {
		t.Fatal("campaign found no detections; the planted hijack should be caught")
	}
	if res.Shards == 0 || res.AgentsLeased == 0 {
		t.Fatalf("no distribution happened: %d shards, %d agents leased", res.Shards, res.AgentsLeased)
	}
	if res.BaselineBytes == 0 || res.ShardBytes == 0 || res.ResultBytes == 0 {
		t.Fatalf("wire accounting empty: baseline=%d shard=%d result=%d",
			res.BaselineBytes, res.ShardBytes, res.ResultBytes)
	}
	if res.ReductionVsFullState <= 1 {
		t.Errorf("result traffic not below full-state counterfactual: %.2fx", res.ReductionVsFullState)
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}

func TestRunE15Quick(t *testing.T) {
	res, err := RunE15(quickCfg)
	if err != nil {
		t.Fatalf("E15: %v", err)
	}
	if res.Routers != 27 || res.Epochs == 0 {
		t.Fatalf("E15 should soak the 27-router demo: %d routers, %d epochs", res.Routers, res.Epochs)
	}
	if !res.SameFindings {
		t.Fatal("instrumented soak changed the finding set")
	}
	if res.Findings == 0 {
		t.Fatal("soak over the planted faults produced no findings")
	}
	if !res.ExpositionDeterministic {
		t.Fatal("32 scrapes of settled state were not byte-identical")
	}
	if res.SeriesCount == 0 || res.ExpositionBytes == 0 {
		t.Fatalf("exposition empty: %d series, %d bytes", res.SeriesCount, res.ExpositionBytes)
	}
	if res.SpansRecorded == 0 {
		t.Error("no campaign spans recorded")
	}
	if res.HistoryBytes == 0 || !res.HistoryRoundTrips {
		t.Fatalf("soak history artifact broken: %d bytes, round-trips=%v", res.HistoryBytes, res.HistoryRoundTrips)
	}
	if res.String() == "" {
		t.Error("empty report")
	}
}
