package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/dice-project/dice/internal/control"
)

// controlEndpoints are the control plane's endpoints, in protocol order.
var controlEndpoints = []string{"register", "baseline", "lease", "heartbeat", "result"}

// endpointStats is one control endpoint's traffic: request/response frame
// pairs, their bytes, and (traced runs only) handler latency and lease
// outcomes.
type endpointStats struct {
	frames  int
	bytes   int
	latency timing
	granted int // lease responses that carried a shard
}

// wireCounter is an http.Handler wrapped around control.NewHandler, in front
// of control.InProcessClient. It counts every request and response byte per
// endpoint; with traced set it also times each call and classifies lease
// responses.
type wireCounter struct {
	traced bool

	mu    sync.Mutex
	next  http.Handler
	round int
	eps   map[string]*endpointStats
}

func newWireCounter(traced bool) *wireCounter {
	return &wireCounter{traced: traced, eps: make(map[string]*endpointStats)}
}

// reset points the counter at a new controller's handler and starts a new
// round's byte count; per-endpoint totals keep accumulating.
func (w *wireCounter) reset(next http.Handler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.next = next
	w.round = 0
}

// total returns the bytes of the current round.
func (w *wireCounter) total() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.round
}

// endpoint returns the stats of one endpoint (zero if never called).
func (w *wireCounter) endpoint(name string) endpointStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ep := w.eps[name]; ep != nil {
		return *ep
	}
	return endpointStats{}
}

// countingWriter records the response body on its way to the client.
type countingWriter struct {
	http.ResponseWriter
	n    int
	body *bytes.Buffer // kept only when the response must be classified
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	if c.body != nil {
		c.body.Write(p)
	}
	return c.ResponseWriter.Write(p)
}

func (w *wireCounter) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/")
	req, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	cw := &countingWriter{ResponseWriter: rw}
	if w.traced && name == "lease" {
		cw.body = new(bytes.Buffer)
	}
	w.mu.Lock()
	next := w.next
	w.mu.Unlock()

	start := time.Now()
	next.ServeHTTP(cw, r)
	elapsed := time.Since(start)

	granted := false
	if cw.body != nil {
		if msg, err := control.DecodeFrame(cw.body); err == nil {
			_, granted = msg.(*control.Lease)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ep := w.eps[name]
	if ep == nil {
		ep = &endpointStats{}
		w.eps[name] = ep
	}
	ep.frames++
	ep.bytes += len(req) + cw.n
	w.round += len(req) + cw.n
	if w.traced {
		ep.latency.add(float64(elapsed) / float64(time.Millisecond))
		if granted {
			ep.granted++
		}
	}
}
