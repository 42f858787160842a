package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/live"
)

func sampleHistory() *History {
	h := &History{}
	h.Soaks = 2
	h.AddEpoch(1, live.EpochSummary{
		Seq: 1, UnixNano: 1700000000000000000,
		Pause: 3 * time.Millisecond, Process: 9 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 40 * time.Millisecond,
		OverBudget: false, Stride: 1,
		Bytes: 4096, DeltaBytes: 512, NodesChanged: 3,
		Campaigns: 5, CampaignsDeduped: 1, Inputs: 40, InputsSaved: 8,
		Paths: 12, PathsSaved: 2, Findings: 1,
	})
	h.AddEpoch(1, live.EpochSummary{
		Seq: 2, UnixNano: 1700000002000000000,
		Pause: 30 * time.Millisecond, Process: 7 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 35 * time.Millisecond,
		OverBudget: true, Stride: 2,
		Bytes: 4096, DeltaBytes: 128, NodesChanged: 1,
		Campaigns: 5, CampaignsDeduped: 3, Inputs: 16, InputsSaved: 24,
		Paths: 6, PathsSaved: 8, Findings: 0,
	})
	h.AddEpoch(2, live.EpochSummary{
		Seq: 1, UnixNano: 1700000100000000000,
		Pause: 2 * time.Millisecond, Process: 5 * time.Millisecond,
		Traffic: 2 * time.Second, Explore: 20 * time.Millisecond,
		Stride: 1, Bytes: 4096, Campaigns: 5, Inputs: 40, Paths: 10,
		Findings: 2,
	})
	h.MergeScenario("session-reset", 1, 0.25)
	h.MergeScenario("delay-burst", 2, 0.5)
	h.MergeScenario("session-reset", 2, 0.3)
	return h
}

// TestHistoryRoundTrip is the codec golden round-trip: encode → decode →
// re-encode must be byte-identical, and the decoded structure must equal
// the original.
func TestHistoryRoundTrip(t *testing.T) {
	h := sampleHistory()
	first := h.Encode()
	decoded, err := DecodeHistory(first)
	if err != nil {
		t.Fatalf("DecodeHistory: %v", err)
	}
	if !reflect.DeepEqual(h, decoded) {
		t.Fatalf("decoded history differs:\n got %+v\nwant %+v", decoded, h)
	}
	second := decoded.Encode()
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode not byte-identical: %d vs %d bytes", len(first), len(second))
	}
}

// TestHistoryEncodeDeterministic re-encodes the same state many times and
// demands identical bytes each time.
func TestHistoryEncodeDeterministic(t *testing.T) {
	h := sampleHistory()
	want := h.Encode()
	for i := 0; i < 32; i++ {
		if got := h.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("encode %d diverged", i)
		}
	}
}

// TestDecodeHistoryRejectsLegacy covers the sniff: gob streams and arbitrary
// bytes are refused with ErrNotHistory rather than misparsed.
func TestDecodeHistoryRejectsLegacy(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(map[string]int{"soaks": 3}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"gob":     buf.Bytes(),
		"empty":   nil,
		"text":    []byte("soak history v0\n"),
		"short":   {0xD1},
		"nomagic": {0x00, 0x01, 0x02, 0x03},
	} {
		if _, err := DecodeHistory(data); !errors.Is(err, ErrNotHistory) {
			t.Errorf("%s: err = %v, want ErrNotHistory", name, err)
		}
	}
}

// TestDecodeHistoryRejectsCorrupt covers truncation, trailing garbage and
// unsorted scenario rows.
func TestDecodeHistoryRejectsCorrupt(t *testing.T) {
	good := sampleHistory().Encode()

	if _, err := DecodeHistory(good[:len(good)-3]); err == nil {
		t.Error("truncated artifact decoded without error")
	}
	if _, err := DecodeHistory(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Error("trailing byte decoded without error")
	}

	unsorted := &History{Soaks: 1, Scenarios: []ScenarioRow{
		{Name: "zz", Findings: 1, Weight: 0.5},
		{Name: "aa", Findings: 1, Weight: 0.5},
	}}
	if _, err := DecodeHistory(unsorted.Encode()); err == nil {
		t.Error("unsorted scenario rows decoded without error")
	}
}

func TestMergeScenarioAccumulates(t *testing.T) {
	h := &History{}
	h.MergeScenario("b", 2, 0.4)
	h.MergeScenario("a", 1, 0.1)
	h.MergeScenario("b", 3, 0.7)
	want := []ScenarioRow{{Name: "a", Findings: 1, Weight: 0.1}, {Name: "b", Findings: 5, Weight: 0.7}}
	if !reflect.DeepEqual(h.Scenarios, want) {
		t.Fatalf("scenarios = %+v, want %+v", h.Scenarios, want)
	}
}

func TestTrendAggregatesPerSoak(t *testing.T) {
	h := sampleHistory()
	trend := h.Trend()
	if len(trend) != 2 {
		t.Fatalf("trend has %d points, want 2", len(trend))
	}
	if trend[0].Soak != 1 || trend[1].Soak != 2 {
		t.Fatalf("trend soak order = %d,%d", trend[0].Soak, trend[1].Soak)
	}
	if trend[0].Epochs != 2 || trend[0].Campaigns != 10 || trend[0].Findings != 1 {
		t.Fatalf("soak 1 aggregate = %+v", trend[0])
	}
	if trend[1].Epochs != 1 || trend[1].Findings != 2 {
		t.Fatalf("soak 2 aggregate = %+v", trend[1])
	}
}

// TestHistoryTruncatedAtEveryOffset is the crash-point test for the history
// file: every strict prefix of an encoded history, decoded directly or
// loaded by a starting daemon, is an error — never a panic, never a partial
// history.
func TestHistoryTruncatedAtEveryOffset(t *testing.T) {
	good := sampleHistory().Encode()
	path := filepath.Join(t.TempDir(), "history.dice")
	for n := 0; n < len(good); n++ {
		if h, err := DecodeHistory(good[:n]); err == nil || h != nil {
			t.Fatalf("truncation at %d/%d: DecodeHistory = %v, %v; want nil and an error", n, len(good), h, err)
		}
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := New(Config{HistoryPath: path}); err == nil || s != nil {
			t.Fatalf("truncation at %d/%d: New loaded a partial history", n, len(good))
		}
	}
}

// TestWriteFileAtomicReplaces checks the durable save path: it replaces an
// existing file, leaves no temporary file behind, and reports a failed write.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.dice")
	for _, data := range [][]byte{sampleHistory().Encode(), []byte("second generation")} {
		if err := writeFileAtomic(path, data); err != nil {
			t.Fatalf("writeFileAtomic: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temporary file left behind: %v", err)
		}
	}
	if err := writeFileAtomic(filepath.Join(dir, "missing", "history.dice"), nil); err == nil {
		t.Fatal("write into a missing directory reported no error")
	}
}
