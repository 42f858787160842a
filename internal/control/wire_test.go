package control

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checker"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/concolic"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/federation"
	"github.com/dice-project/dice/internal/netem"
	"github.com/dice-project/dice/internal/topology"
)

// sampleMessages returns one populated instance of every wire message, plus
// the shapes the codec must get right: a nil and a two-region detection
// input, a lease delta with patches and in-flight messages, and nil versus
// empty Units lists.
func sampleMessages() []any {
	topo := *topology.Line(3)
	topo.Links[0].Loss = 0.25
	return []any{
		&Hello{Agent: "a1", Backends: []string{"bird", "frr"}, Workers: 4},
		&Welcome{AgentID: "agent-1", Campaign: "demo", HeartbeatEvery: time.Second, LeaseTTL: 3 * time.Second},
		&BaselineRequest{AgentID: "agent-1"},
		&Baseline{
			Campaign:       "demo",
			Topo:           topo,
			Snapshot:       []byte{1, 2, 3, 4},
			SnapshotSHA256: checkpoint.HashBytes([]byte{1, 2, 3, 4}),
			Spec: dice.RemoteSpec{
				Seed: 7, FuzzSeeds: 4, UseConcolic: true, ShadowMaxEvents: 1000,
				HasProperties: true, Properties: []string{"origin-validity"},
				Domains:     []federation.Domain{{Name: "as1", Nodes: []string{"R1"}}},
				ClusterSeed: 1, ClusterMaxEvents: 2000, ClusterGaoRexford: true, ClusterKeepalive: 30 * time.Second,
			},
		},
		&LeaseRequest{AgentID: "agent-1"},
		&Lease{
			Shard: 2, Attempt: 1,
			UnitIndexes: []int{4, 5},
			Units: []dice.Unit{
				{Explorer: "R1", FromPeer: "R2", MaxInputs: 8, FuzzSeeds: 4, Seed: 11, Domain: "as1"},
				{Explorer: "R2", FromPeer: "R1", MaxInputs: 8, FuzzSeeds: 4, Seed: -12},
			},
			Delta: checkpoint.SnapshotDelta{
				At:         5 * time.Second,
				Consistent: true,
				InFlight: []netem.QueuedMessage{
					{From: "R2", To: "R1", Payload: []byte{0xff, 0, 1}, Deliver: 5100 * time.Millisecond},
				},
				Patches: []checkpoint.NodePatch{
					{Node: "R1", Impl: "bird", PrefixLen: 3, SuffixLen: 2, Patch: []byte{9, 9}, FullLen: 7,
						FullHash: checkpoint.HashBytes([]byte("R1"))},
					{Node: "R3", Impl: "frr", Patch: []byte{1}, FullLen: 1},
				},
			},
		},
		&NoWork{Done: true},
		&Heartbeat{AgentID: "agent-1"},
		&HeartbeatAck{Cancel: true},
		&ShardResult{
			AgentID: "agent-1", Shard: 2, Attempt: 1,
			Units: []UnitResult{
				{Index: 4, Result: &RemoteResult{
					Explorer: "R1", FromPeer: "R2", Domain: "as1", InputsExplored: 8,
					Detections: []RemoteDetection{
						{
							Digest: checker.ViolationDigest{Property: "origin-validity", Class: checker.ClassOperatorMistake,
								Node: "R1", Prefix: bgp.MustParsePrefix("10.0.3.0/24"), HasPfx: true},
							InputIndex: 3,
							Input:      &concolic.Input{Regions: map[string][]byte{"update": {1, 2, 3}, "attrs": {4}}},
							Elapsed:    time.Millisecond,
						},
						{Digest: checker.ViolationDigest{Property: "node-health", Class: checker.ClassProgrammingError, Node: "R2"}, InputIndex: 5},
					},
					DisclosedBytes: 17, Duration: 2 * time.Millisecond,
					ExplorerStats: concolic.Stats{Executions: 8, UniquePaths: 3, SolverQueries: 5, SolverSat: 4, Truncated: 1},
				}},
				{Index: 5, Err: "boom"},
			},
			Envelopes: []federation.Envelope{
				{Seq: 0, From: "as1", To: "as2", Bytes: 42, Summary: checker.Summary{
					Domain: "as1", Checked: 3,
					Digests: []checker.ViolationDigest{{Property: "origin-validity", Class: checker.ClassOperatorMistake, Node: "R1"}},
					Edges:   []checker.ForwardingEdge{{Node: "R1", Prefix: bgp.MustParsePrefix("10.0.1.0/24"), NextHop: "R2"}},
				}},
			},
		},
		&ResultAck{Accepted: true},
		&ShardResult{AgentID: "agent-2", Shard: 3, Attempt: 2},
		&Lease{Shard: 4, Units: []dice.Unit{}},
	}
}

// nilEmpty replaces every empty slice and map reachable from v with nil:
// the wire, like the codec everywhere, does not distinguish an empty list
// from an absent one, and both decode to nil.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 && !v.IsNil() && v.CanSet() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				nilEmpty(v.Index(i))
			}
		}
	}
}

// TestWireRoundTrip: every message type must encode to one frame and decode
// back equal (empty lists as nil), FrameSize must agree with the bytes
// written, and re-encoding the decoded message must reproduce the frame.
func TestWireRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		var buf bytes.Buffer
		n, err := EncodeFrame(&buf, msg)
		if err != nil {
			t.Fatalf("EncodeFrame(%T): %v", msg, err)
		}
		if n != buf.Len() {
			t.Errorf("%T: EncodeFrame reported %d bytes, wrote %d", msg, n, buf.Len())
		}
		if size, err := FrameSize(msg); err != nil || size != n {
			t.Errorf("%T: FrameSize = %d (%v), want %d", msg, size, err, n)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		got, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%T): %v", msg, err)
		}
		var again bytes.Buffer
		if _, err := EncodeFrame(&again, got); err != nil || !bytes.Equal(again.Bytes(), frame) {
			t.Errorf("%T: re-encoded frame differs (%v)", msg, err)
		}
		nilEmpty(reflect.ValueOf(msg))
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

// frameOf encodes msg as one frame.
func frameOf(t *testing.T, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeFrame(&buf, msg); err != nil {
		t.Fatalf("EncodeFrame(%T): %v", msg, err)
	}
	return buf.Bytes()
}

// TestWireEncodingDeterministic: equal messages encode to identical frame
// bytes. Two ShardResults whose detection inputs were filled in opposite
// insertion orders must match (map iteration order is randomized, so an
// encoder that ranged the map would differ between runs), and a nil Units
// list must encode exactly like an empty one.
func TestWireEncodingDeterministic(t *testing.T) {
	keys := []string{"attrs", "bgp", "community", "med", "nexthop", "origin", "path", "update"}
	result := func(order []string) *ShardResult {
		in := &concolic.Input{Regions: make(map[string][]byte)}
		for _, k := range order {
			in.Regions[k] = []byte(k)
		}
		return &ShardResult{AgentID: "agent-1", Shard: 1, Attempt: 1, Units: []UnitResult{{
			Index:  0,
			Result: &RemoteResult{Explorer: "R1", Detections: []RemoteDetection{{InputIndex: 2, Input: in}}},
		}}}
	}
	reversed := make([]string, len(keys))
	for i, k := range keys {
		reversed[len(keys)-1-i] = k
	}
	want := frameOf(t, result(keys))
	for i := 0; i < 20; i++ {
		if got := frameOf(t, result(reversed)); !bytes.Equal(got, want) {
			t.Fatalf("equal ShardResults encoded differently:\n%x\n%x", got, want)
		}
	}

	if a, b := frameOf(t, &Lease{Shard: 4}), frameOf(t, &Lease{Shard: 4, Units: []dice.Unit{}}); !bytes.Equal(a, b) {
		t.Fatalf("nil and empty Units encode differently:\n%x\n%x", a, b)
	}
}

// TestSummaryKeyCrossProcessParity: shipping federation envelopes and
// detection digests in a ShardResult frame must not change any envelope's
// Summary.Key() or any digest, or campaign-wide dedupe would double-count
// detections that arrived over the distributed-execution wire.
func TestSummaryKeyCrossProcessParity(t *testing.T) {
	p1 := bgp.MustParsePrefix("10.0.1.0/24")
	p2 := bgp.MustParsePrefix("10.0.2.0/24")
	summary := checker.Summary{
		Domain:  "as7",
		Checked: 12,
		Digests: []checker.ViolationDigest{
			{Property: "origin-validity", Class: checker.ClassOperatorMistake, Node: "R3", Prefix: p1, HasPfx: true},
			{Property: "reachability", Class: checker.ClassPolicyConflict, Node: "R1", Prefix: p2, HasPfx: true},
		},
		Edges: []checker.ForwardingEdge{
			{Node: "R3", Prefix: p1, NextHop: "R1"},
			{Node: "R1", Prefix: p2, NextHop: ""},
		},
	}
	sent := &ShardResult{
		AgentID: "agent-1", Shard: 1, Attempt: 1,
		Units: []UnitResult{{Index: 0, Result: &RemoteResult{
			Explorer:   "R3",
			Detections: []RemoteDetection{{Digest: summary.Digests[0]}, {Digest: summary.Digests[1], InputIndex: 1}},
		}}},
		Envelopes: []federation.Envelope{
			{Seq: 1, From: "as7", To: "as1", Summary: summary, Bytes: summary.Size()},
			{Seq: 2, From: "as7", To: "as2", Summary: checker.Summary{Domain: "as7", Checked: 4, OK: true}},
		},
	}
	msg, err := DecodeFrame(bytes.NewReader(frameOf(t, sent)))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	got := msg.(*ShardResult)
	if len(got.Envelopes) != len(sent.Envelopes) {
		t.Fatalf("got %d envelopes, want %d", len(got.Envelopes), len(sent.Envelopes))
	}
	for i, env := range sent.Envelopes {
		if k := got.Envelopes[i].Summary.Key(); k != env.Summary.Key() {
			t.Errorf("envelope %d key changed across the wire:\n before %q\n after  %q", i, env.Summary.Key(), k)
		}
	}
	for i, d := range sent.Units[0].Result.Detections {
		gd := got.Units[0].Result.Detections[i].Digest
		if gd != d.Digest || gd.Key() != d.Digest.Key() {
			t.Errorf("detection %d digest changed across the wire: %+v, want %+v", i, gd, d.Digest)
		}
	}
}

// TestWireRejectsMalformed: corrupted headers and truncated payloads error
// cleanly.
func TestWireRejectsMalformed(t *testing.T) {
	var good bytes.Buffer
	if _, err := EncodeFrame(&good, &Heartbeat{AgentID: "agent-1"}); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), frame...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":        corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":      corrupt(func(b []byte) { b[2] = 99 }),
		"zero type":        corrupt(func(b []byte) { b[3] = 0 }),
		"unknown type":     corrupt(func(b []byte) { b[3] = byte(msgTypeEnd) }),
		"huge length":      corrupt(func(b []byte) { b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff }),
		"truncated header": frame[:4],
		"truncated body":   frame[:len(frame)-1],
		"empty":            nil,
		"wrong payload":    corrupt(func(b []byte) { b[3] = byte(MsgBaseline) }),
	}
	for name, data := range cases {
		if _, err := DecodeFrame(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
		}
	}
}

// TestWireVersionGate: version skew in either direction must be rejected at
// the header — cleanly, before any payload is decoded — never misparsed.
// Every revision changed payload bytes (version 2 the baseline encoding and
// the delta patch schema, version 4 gob to the codec), so a mixed-version
// deployment that slipped past this gate would corrupt snapshots rather than
// error.
func TestWireVersionGate(t *testing.T) {
	frame := func(msg any) []byte {
		var buf bytes.Buffer
		if _, err := EncodeFrame(&buf, msg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Old agent → new controller: a version-1 Hello (the first frame an
	// agent ever sends) is refused by the current decoder.
	oldHello := frame(&Hello{Agent: "legacy", Backends: []string{"bird"}, Workers: 2})
	oldHello[2] = 1
	_, err := DecodeFrame(bytes.NewReader(oldHello))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("version-1 agent frame decoded by version-%d controller: %v", WireVersion, err)
	}

	// A genuine version-3 frame — a gob-encoded Heartbeat as the last gob
	// release wrote it — is refused at the header, never handed to the
	// codec payload decoder.
	v3Heartbeat := []byte("DW\x03\b\x00\x00\x001#\xff\xb7\x03\x01\x01\tHeartbeat\x01\xff\xb8\x00\x01\x01\x01\aAgentID\x01\f\x00\x00\x00\f\xff\xb8\x01\aagent-1\x00")
	if _, err := DecodeFrame(bytes.NewReader(v3Heartbeat)); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("version 3")) {
		t.Fatalf("version-3 gob frame decoded by version-%d decoder: %v", WireVersion, err)
	}

	// New controller → old agent: the version-1 decoder checked the header's
	// version byte against 1 before touching the payload (same gate, older
	// constant). A current Baseline frame announces a later version, so the old
	// binary rejects at the header instead of gob-misparsing the new fields.
	baseline := frame(&Baseline{Campaign: "c", Snapshot: []byte{0xD1, 0xCE, 1, 1}})
	if got := baseline[2]; got != WireVersion || got == 1 {
		t.Fatalf("baseline frame announces version %d, want %d (≠ 1)", got, WireVersion)
	}
	legacyDecode := func(b []byte) error { // the version-1 gate, verbatim
		if len(b) < frameHeaderLen || b[0] != wireMagic0 || b[1] != wireMagic1 {
			return errors.New("control: bad frame magic")
		}
		if b[2] != 1 {
			return fmt.Errorf("control: unsupported wire version %d (have 1)", b[2])
		}
		return nil
	}
	if err := legacyDecode(baseline); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("version-1 agent accepted a version-%d baseline: %v", WireVersion, err)
	}

	// And a later revision than ours is equally refused.
	future := frame(&NoWork{})
	future[2] = WireVersion + 1
	if _, err := DecodeFrame(bytes.NewReader(future)); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Fatalf("future version decoded: %v", err)
	}
}

// TestWireStreamsMultipleFrames: frames are self-delimiting on one stream.
func TestWireStreamsMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{&Heartbeat{AgentID: "a"}, &HeartbeatAck{}, &NoWork{Done: true}}
	for _, m := range msgs {
		if _, err := EncodeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stream decode: got %+v want %+v", got, want)
		}
	}
	if _, err := DecodeFrame(&buf); err == nil || !bytes.Contains([]byte(err.Error()), []byte("header")) {
		t.Errorf("exhausted stream should report a header error, got %v", err)
	}
	_ = io.EOF
}

// TestFrameSubHeaderInputs: inputs shorter than the 8-byte frame header —
// including empty and single-byte reads — must error cleanly, never panic.
func TestFrameSubHeaderInputs(t *testing.T) {
	var good bytes.Buffer
	if _, err := EncodeFrame(&good, &Heartbeat{AgentID: "a"}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < frameHeaderLen; n++ {
		if _, err := DecodeFrame(bytes.NewReader(good.Bytes()[:n])); err == nil {
			t.Errorf("%d-byte frame prefix decoded without error", n)
		}
	}
}

// oversizedHeartbeat is a Heartbeat frame header that claims a 1 MB payload.
var oversizedHeartbeat = []byte{'D', 'W', WireVersion, byte(MsgHeartbeat), 0x00, 0x10, 0x00, 0x00}

// TestFrameCapPerType: only the Baseline, Lease and ShardResult frames may
// carry a large payload. A small control frame whose header claims 1 MB is
// rejected by its length alone, before the payload is allocated or read,
// while the same claim on a Baseline passes the cap and fails only for the
// missing bytes.
func TestFrameCapPerType(t *testing.T) {
	_, err := DecodeFrame(bytes.NewReader(oversizedHeartbeat))
	if err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("1 MB Heartbeat header: %v, want a cap error", err)
	}
	big := append([]byte(nil), oversizedHeartbeat...)
	big[3] = byte(MsgBaseline)
	_, err = DecodeFrame(bytes.NewReader(big))
	if err == nil || !strings.Contains(err.Error(), "frame payload") {
		t.Fatalf("1 MB Baseline header: %v, want a truncated-payload error", err)
	}
	if _, err := EncodeFrame(io.Discard, &Hello{Agent: strings.Repeat("a", maxControlPayload)}); err == nil {
		t.Fatal("EncodeFrame wrote a Hello past the control-frame cap")
	}
}

// TestEncodeFrameConcurrent: encoding only reads the message, so one value
// may be framed from several goroutines at once (run under -race).
func TestEncodeFrameConcurrent(t *testing.T) {
	msgs := sampleMessages()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				if _, err := EncodeFrame(io.Discard, m); err != nil {
					t.Errorf("EncodeFrame(%T): %v", m, err)
				}
			}
		}()
	}
	wg.Wait()
}
