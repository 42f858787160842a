package checkpoint

import (
	"bytes"
	"testing"

	"github.com/dice-project/dice/internal/checkpoint/codec"
)

// FuzzCheckpointCodecDecode hammers the codec's decode surface with mutated
// bytes: whole snapshots, single-node encodings, flipped headers, truncated
// slabs. The contract under fuzzing is the
// codec's core safety property — malformed input returns an error, it never
// panics and never decodes into a value that re-encodes differently. The
// checked-in seed corpus (testdata/fuzz/FuzzCheckpointCodecDecode) starts
// the mutator from valid encodings so it spends its budget inside the slab
// parsers, not on the magic check.
func FuzzCheckpointCodecDecode(f *testing.F) {
	s := sampleSnapshot(f)
	snapEnc, err := Encode(s)
	if err != nil {
		f.Fatal(err)
	}
	nodeEnc, err := EncodeNode(s.Nodes["A"])
	if err != nil {
		f.Fatal(err)
	}

	f.Add(snapEnc)
	f.Add(nodeEnc)
	f.Add([]byte("foreign bytes without a codec header"))
	f.Add([]byte{})
	f.Add([]byte{codec.Magic0})
	f.Add([]byte{codec.Magic0, codec.Magic1})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version, codec.KindSnapshot})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version, codec.KindNode})
	f.Add([]byte{codec.Magic0, codec.Magic1, codec.Version + 1, codec.KindSnapshot})
	f.Add(snapEnc[:len(snapEnc)/2])
	f.Add(nodeEnc[:len(nodeEnc)-1])
	flipped := append([]byte(nil), snapEnc...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must error or produce a snapshot that re-encodes cleanly.
		// The re-encoding is the canonical form (mutated input may carry
		// non-minimal varints or unsorted maps that parse anyway), so it must
		// be a fixed point: decoding it and encoding again is bytewise stable.
		if snap, err := Decode(data); err == nil {
			re, err := Encode(snap)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			snap2, err := Decode(re)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			re2, err := Encode(snap2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re, re2) {
				t.Fatalf("canonical form not a fixed point: %d vs %d bytes", len(re), len(re2))
			}
			sizes, err := Measure(snap)
			if err != nil {
				t.Fatalf("decoded snapshot does not measure: %v", err)
			}
			if sizes.TotalBytes != len(re) {
				t.Fatalf("Measure %d != len(Encode) %d", sizes.TotalBytes, len(re))
			}
		}
		// Same contract for the single-node surface, tagless and tagged.
		for _, impl := range []string{"", "bird", "frr"} {
			if cp, err := DecodeNode(impl, data); err == nil {
				if _, err := EncodeNode(cp); err != nil {
					t.Fatalf("decoded node (impl %q) does not re-encode: %v", impl, err)
				}
			}
		}
	})
}
