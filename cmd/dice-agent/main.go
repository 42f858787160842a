// Command dice-agent is the execution side of distributed DiCE: it dials a
// dice-control plane outbound, registers its capabilities, fetches the
// campaign baseline snapshot once, then leases shards and runs each through
// the ordinary campaign/clone-pool machinery locally. Only per-unit results
// and checker.Summary envelopes are posted back — node state never leaves
// the agent. The process exits 0 once the control plane reports the
// campaign done.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	dice "github.com/dice-project/dice"
	"github.com/dice-project/dice/internal/agent"
	"github.com/dice-project/dice/internal/obs"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled or hostile client cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	name := flag.String("name", hostname(), "agent display name")
	controlURL := flag.String("control", "http://127.0.0.1:7777", "control plane base URL")
	workers := flag.Int("workers", runtime.NumCPU(), "local clone parallelism")
	poll := flag.Duration("poll", 50*time.Millisecond, "idle wait between lease polls")
	metricsAddr := flag.String("metrics", "", "optional address to serve /metrics and /healthz on")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ag := dice.NewAgent(dice.AgentConfig{
		Name:         *name,
		ControlURL:   *controlURL,
		Workers:      *workers,
		PollInterval: *poll,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dice-agent:", err)
			os.Exit(1)
		}
		reg := obs.NewRegistry()
		agent.RegisterMetrics(reg, func() *agent.Agent { return ag })
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"status\":\"ok\",\"shards_run\":%d}\n", ag.ShardsRun())
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = reg.WritePrometheus(w)
		})
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("agent %s: metrics on http://%s\n", *name, ln.Addr())
	}
	if err := ag.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dice-agent:", err)
		os.Exit(1)
	}
	fmt.Printf("agent %s: %d shards run\n", *name, ag.ShardsRun())
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "agent"
	}
	return h
}
