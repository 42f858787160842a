package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// reference is a recorded detection fingerprint: how many distinct
// violations a workload reports for a seed, and the SHA-256 of their sorted
// keys.
type reference struct {
	Detections int    `json:"detections"`
	SHA256     string `json:"sha256"`
}

// refOf summarizes a fingerprint.
func refOf(print string) reference {
	return reference{Detections: countLines(print), SHA256: hashOf(print)}
}

// matches reports whether the fingerprint is the referenced detection set.
func (r reference) matches(print string) bool {
	return r.Detections == countLines(print) && r.SHA256 == hashOf(print)
}

func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func shortHash(s string) string { return hashOf(s)[:12] }

// refsFile is the reference table shipped with the benchmark: workload →
// run seed → one reference per instance. Regenerate an entry with -record.
//
//go:embed refs.json
var refsFile []byte

type refTable map[string]map[string][]reference

func loadRefs(data []byte) (refTable, error) {
	t := refTable{}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

// storedRefs returns the recorded references of a workload's instances for
// a run seed.
func storedRefs(workload string, seed int64) ([]reference, bool) {
	t, err := loadRefs(refsFile)
	if err != nil {
		return nil, false
	}
	r, ok := t[workload][strconv.FormatInt(seed, 10)]
	return r, ok
}

// recordRefs writes a workload's instance references for a run seed into
// the table at path.
func recordRefs(path, workload string, seed int64, refs []reference) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t, err := loadRefs(data)
	if err != nil {
		return err
	}
	if t[workload] == nil {
		t[workload] = map[string][]reference{}
	}
	t[workload][strconv.FormatInt(seed, 10)] = refs
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
