package checkpoint

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzCheckpointCodecDecode when run with DICE_WRITE_CORPUS=1 (and is a
// no-op skip otherwise). The corpus must track the codec: after a format
// revision, rerun with the env var set, delete the directory's stale
// entries first, and commit the result, so CI's fuzz burst starts from valid
// current-format encodings.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("DICE_WRITE_CORPUS") != "1" {
		t.Skip("corpus generator; run with DICE_WRITE_CORPUS=1 to regenerate")
	}
	s := sampleSnapshot(t)
	snapEnc, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	nodeEnc, err := EncodeNode(s.Nodes["A"])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), snapEnc...)
	flipped[len(flipped)/2] ^= 0xFF
	badver := append([]byte(nil), nodeEnc...)
	badver[2] = 0x7F

	seeds := map[string][]byte{
		"snapshot-valid":     snapEnc,
		"node-valid":         nodeEnc,
		"snapshot-truncated": snapEnc[:len(snapEnc)/2],
		"node-truncated":     nodeEnc[:len(nodeEnc)-3],
		"snapshot-bitflip":   flipped,
		"node-bad-version":   badver,
		"header-only":        {0xD1, 0xCE, 1, 1},
		"sub-header":         {0xD1, 0xCE, 1},
		"magic-only":         {0xD1, 0xCE},
		"magic0-only":        {0xD1},
		"empty":              {},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointCodecDecode")
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
