package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPerturbedDetectionSetIsRejected(t *testing.T) {
	keys := []string{"origin-validity|R3|10.0.27.0/24|true", "reachability|R9|10.0.4.0/24|true", "node-health|R1||false"}
	print := fingerprint(append(keys, keys[0])) // duplicates collapse
	ref := refOf(print)
	if ref.Detections != 3 || !ref.matches(print) {
		t.Fatalf("reference %+v does not match its own fingerprint", ref)
	}
	perturbed := map[string][]string{
		"dropped":  keys[:2],
		"added":    append(append([]string(nil), keys...), "loop-freedom|R5|10.0.1.0/24|true"),
		"changed":  {keys[0], keys[1], "node-health|R2||false"},
		"reported": {keys[0], keys[1], keys[2], ""},
	}
	for name, ks := range perturbed {
		if ref.matches(fingerprint(ks)) {
			t.Errorf("%s detection set accepted", name)
		}
		res := &result{}
		checkPrint(res, name, fingerprint(ks), ref)
		if res.correct() || res.failed != 1 || len(res.problems) != 1 {
			t.Errorf("%s detection set: checkPrint left %+v", name, res)
		}
	}
	// Order never matters.
	if !ref.matches(fingerprint([]string{keys[2], keys[1], keys[0]})) {
		t.Error("a reordered detection set was rejected")
	}
}

func TestExpectedFallsBackToFirstRound(t *testing.T) {
	e := &expected{}
	res := &result{}
	e.check(res, "round", "a\nb")
	e.check(res, "round", "a\nb")
	e.check(res, "round", "a\nc")
	if res.attempted != 3 || res.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", res.attempted, res.failed)
	}
}

func TestRecordedReferencesCoverEveryWorkloadOnTwoSeeds(t *testing.T) {
	for _, w := range workloads() {
		for _, seed := range []int64{1, 2} {
			if refs, ok := storedRefs(refWorkload(w.name), seed); !ok || len(refs) == 0 {
				t.Errorf("no recorded reference for %s seed %d", w.name, seed)
			}
		}
	}
	if _, ok := storedRefs("campaign-demo27", 987654); ok {
		t.Error("an unrecorded seed has a reference")
	}
}

func TestRecordRefRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "refs.json")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []reference{refOf("x\ny"), refOf("z")}
	if err := recordRefs(path, "w", 7, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table, err := loadRefs(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := table["w"]["7"]; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("recorded %+v, want %+v", got, want)
	}
	if _, err := loadRefs([]byte("not json")); err == nil {
		t.Error("a malformed table was accepted")
	}
	if err := recordRefs(filepath.Join(t.TempDir(), "missing.json"), "w", 1, want); err == nil {
		t.Error("recording into a missing table succeeded")
	}
}

func TestPlantedHijackCheck(t *testing.T) {
	dep := demo27(1)
	hit := "origin-validity|R5|" + dep.victim.String() + "|true"
	if err := dep.plantedFound(fingerprint([]string{"reachability|R1|x|true", hit})); err != nil {
		t.Error(err)
	}
	if dep.plantedFound(fingerprint([]string{"reachability|R5|" + dep.victim.String() + "|true"})) == nil {
		t.Error("a detection set without the planted hijack passed")
	}
}

// benchmarkFile mirrors the fields of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runJSON runs the benchmark in-process and decodes its last output line.
func runJSON(t *testing.T, args ...string) (map[string]any, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v exited %d: %s\n%s", args, code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var doc map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	return doc, out.String()
}

func TestBenchmarkFileMatchesTheWorkloadsAndMetrics(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, names[i])
		}
	}
	units := map[string]string{}
	for _, m := range layerMetrics() {
		units[m.name] = m.unit
	}
	if len(b.PerLayer) != len(units) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(units))
	}
	for _, m := range b.PerLayer {
		if unit, ok := units[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s [%s]: the benchmark reports %q", m.Name, m.Unit, unit)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestEveryWorkloadRunsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkFile(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			doc, out := runJSON(t, "--workload", w.name, "--seed", "1", "--seconds", "0.01")
			if doc["correct"] != true || doc["failed"].(float64) != 0 || doc["attempted"].(float64) < 1 {
				t.Fatalf("untraced run not correct:\n%s", out)
			}
			metrics := doc["metrics"].(map[string]any)
			if len(metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok || v["unit"] != m.Unit || v["value"].(float64) <= 0 {
					t.Errorf("end-to-end %s: got %v", m.Name, metrics[m.Name])
				}
			}

			traceOut := filepath.Join(t.TempDir(), "spans.jsonl")
			doc, out = runJSON(t, "--workload", w.name, "--seed", "2", "--seconds", "0.01", "--trace", "1", "--trace-out", traceOut)
			if doc["correct"] != true {
				t.Fatalf("traced run not correct:\n%s", out)
			}
			metrics = doc["metrics"].(map[string]any)
			if len(metrics) != len(b.PerLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if _, ok := metrics[m.Name]; !ok {
					t.Errorf("traced run lacks %s", m.Name)
				}
			}
			spans, err := os.ReadFile(traceOut)
			if err != nil || !bytes.Contains(spans, []byte(`"name":"checker.check"`)) {
				t.Errorf("span file %s: %v", traceOut, err)
			}
		})
	}
}

func TestRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "campaign-demo27", "--trace", "2"},
		{"--workload", "campaign-demo27", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run %v exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run %v printed a result", args)
		}
	}
	var out bytes.Buffer
	if code := run([]string{"--list"}, &out, &out); code != 0 || !strings.Contains(out.String(), "soak-demo27") {
		t.Errorf("--list: %d %q", code, out.String())
	}
}
