// Command dice-serve is the long-running operational daemon around the live
// runtime: it holds one attached deployment, runs soaks on demand, and
// exposes /healthz, Prometheus /metrics and a JSON control API
// (attach/detach, soak start/stop, findings, history, trace). Soak history
// is persisted through the deterministic checkpoint codec, so a restarted
// daemon resumes its trendline byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/dice-project/dice/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled or hostile client cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:7780", "address to serve the API on")
	history := flag.String("history", "dice-serve-history.bin", "soak-history file (codec artifact; empty disables persistence)")
	traceCap := flag.Int("trace-capacity", 4096, "finished trace spans retained")
	flag.Parse()

	if err := run(*listen, *history, *traceCap); err != nil {
		fmt.Fprintln(os.Stderr, "dice-serve:", err)
		os.Exit(1)
	}
}

func run(listen, history string, traceCap int) error {
	s, err := serve.New(serve.Config{
		HistoryPath:   history,
		TraceCapacity: traceCap,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln)
	// The line the smoke driver parses for the dial address.
	fmt.Printf("serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("serve: shutting down")
	return srv.Close()
}
