package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"github.com/dice-project/dice/internal/control"
)

// frameHandler answers every request with the given frame, after draining
// the request body.
func frameHandler(t *testing.T, reply any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Error(err)
		}
		if _, err := control.EncodeFrame(w, reply); err != nil {
			t.Error(err)
		}
	})
}

func post(t *testing.T, c *http.Client, path string, body []byte) []byte {
	t.Helper()
	resp, err := c.Post("http://control.inproc/v1/"+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWireCounterCountsRequestAndResponseBytes(t *testing.T) {
	w := newWireCounter(false)
	w.reset(frameHandler(t, &control.NoWork{}))
	client := control.InProcessClient(w)

	reqA := bytes.Repeat([]byte{1}, 100)
	respA := post(t, client, "register", reqA)
	reqB := bytes.Repeat([]byte{2}, 7)
	respB := post(t, client, "register", reqB)
	respC := post(t, client, "heartbeat", nil)

	reg := w.endpoint("register")
	if reg.frames != 2 {
		t.Errorf("register frames = %d, want 2", reg.frames)
	}
	if want := len(reqA) + len(respA) + len(reqB) + len(respB); reg.bytes != want {
		t.Errorf("register bytes = %d, want %d", reg.bytes, want)
	}
	if hb := w.endpoint("heartbeat"); hb.frames != 1 || hb.bytes != len(respC) {
		t.Errorf("heartbeat = %+v, want 1 frame of %d bytes", hb, len(respC))
	}
	if total := w.total(); total != reg.bytes+len(respC) {
		t.Errorf("round total = %d, want %d", total, reg.bytes+len(respC))
	}
	if unused := w.endpoint("result"); unused.frames != 0 || unused.bytes != 0 {
		t.Errorf("an endpoint never called reports %+v", unused)
	}
	if len(reg.latency.samples) != 0 {
		t.Error("an untraced counter must not time calls")
	}

	// A new round restarts the round total but keeps the endpoint totals.
	w.reset(frameHandler(t, &control.NoWork{}))
	if w.total() != 0 || w.endpoint("register").frames != 2 {
		t.Error("reset must clear only the round total")
	}
}

func TestWireCounterClassifiesLeases(t *testing.T) {
	w := newWireCounter(true)
	w.reset(frameHandler(t, &control.Lease{Shard: 3}))
	client := control.InProcessClient(w)
	resp := post(t, client, "lease", []byte("poll"))
	msg, err := control.DecodeFrame(bytes.NewReader(resp))
	if err != nil {
		t.Fatalf("the wrapper must pass the response through intact: %v", err)
	}
	if _, ok := msg.(*control.Lease); !ok {
		t.Fatalf("response decoded to %T", msg)
	}
	w.reset(frameHandler(t, &control.NoWork{}))
	post(t, client, "lease", []byte("poll"))

	lease := w.endpoint("lease")
	if lease.frames != 2 || lease.granted != 1 {
		t.Errorf("lease frames %d granted %d, want 2 and 1", lease.frames, lease.granted)
	}
	if len(lease.latency.samples) != 2 {
		t.Errorf("a traced counter times every call; got %d samples", len(lease.latency.samples))
	}
}
