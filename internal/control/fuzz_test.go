package control

import (
	"bytes"
	"testing"
)

// FuzzShardMessageDecode feeds arbitrary bytes to the frame decoder: every
// input must either decode into a known message type or return an error —
// never panic and never allocate unboundedly. The seed corpus covers every
// valid message plus classic corruptions (bit flips in each header field,
// truncations, a small frame claiming a 1 MB payload), and whatever decodes
// must re-encode into the canonical form, which is a fixed point: decoding
// it and encoding again reproduces it byte for byte. (A mutated payload may
// carry non-minimal varints that parse anyway, so the first re-encoding
// need not equal the input.)
func FuzzShardMessageDecode(f *testing.F) {
	for _, msg := range sampleMessages() {
		var buf bytes.Buffer
		if _, err := EncodeFrame(&buf, msg); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame)
		for i := 0; i < frameHeaderLen && i < len(frame); i++ {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 0x41
			f.Add(flipped)
		}
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{'D', 'W', WireVersion, byte(MsgHello), 0xff, 0xff, 0xff, 0xff})
	f.Add(oversizedHeartbeat)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeFrame(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, and it did
		}
		if msg == nil {
			t.Fatal("nil message with nil error")
		}
		var canon bytes.Buffer
		if _, err := EncodeFrame(&canon, msg); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		again, err := DecodeFrame(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical %T frame does not decode: %v", msg, err)
		}
		var twice bytes.Buffer
		if _, err := EncodeFrame(&twice, again); err != nil || !bytes.Equal(twice.Bytes(), canon.Bytes()) {
			t.Fatalf("canonical %T frame is not a fixed point (%v)", msg, err)
		}
	})
}
