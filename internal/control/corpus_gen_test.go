package control

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzShardMessageDecode when run with DICE_WRITE_CORPUS=1 (and is a no-op
// skip otherwise). The corpus must track the wire: after a WireVersion bump,
// delete the directory's entries, rerun with the env var set and commit the
// result, so CI's fuzz burst starts from valid current-version frames.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("DICE_WRITE_CORPUS") != "1" {
		t.Skip("corpus generator; run with DICE_WRITE_CORPUS=1 to regenerate")
	}
	oldVersion := frameOf(t, &Hello{Agent: "legacy", Backends: []string{"bird"}, Workers: 2})
	oldVersion[2] = WireVersion - 1

	seeds := map[string][]byte{
		"seed-empty":               {},
		"seed-1byte":               {'D'},
		"seed-magic":               {'D', 'W'},
		"seed-oldversion":          oldVersion,
		"seed-heartbeat-oversized": oversizedHeartbeat,
	}
	for i, msg := range sampleMessages() {
		seeds["seed-"+strconv.Itoa(i)] = frameOf(t, msg)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzShardMessageDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
