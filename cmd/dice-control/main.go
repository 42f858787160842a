// Command dice-control is the campaign-side control plane of distributed
// DiCE: it deploys the demo topology (with the demo's planted faults),
// snapshots it, plans the campaign, and serves shard leases over HTTP to
// dice-agent processes that dial in outbound. Shards ship as snapshot deltas
// against a baseline each agent fetches once; only per-unit results and
// checker.Summary envelopes travel back. The campaign starts once -agents
// agents have registered and the process exits 0 when it completes, after
// printing the detection set and per-agent shard counts (the smoke test in
// examples/distributed asserts on both).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	dice "github.com/dice-project/dice"
	"github.com/dice-project/dice/internal/control"
	"github.com/dice-project/dice/internal/obs"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled or hostile client cannot hold a connection forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to serve the control API on")
	agents := flag.Int("agents", 1, "registered agents required before the campaign starts")
	unitsPerShard := flag.Int("units-per-shard", 2, "exploration units leased per shard")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "shard lease expiry (heartbeats renew it)")
	inputs := flag.Int("inputs", 54, "total exploration inputs")
	fuzzSeeds := flag.Int("fuzz-seeds", 2, "grammar-fuzzed seeds per unit")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(), "worker hint shipped to agents")
	federated := flag.Bool("federated", false, "run the campaign federated per-AS; summaries remain the only cross-domain traffic")
	timeout := flag.Duration("timeout", 5*time.Minute, "campaign deadline")
	flag.Parse()

	if err := run(*listen, *agents, *unitsPerShard, *leaseTTL, *inputs, *fuzzSeeds, *seed, *workers, *federated, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "dice-control:", err)
		os.Exit(1)
	}
}

func run(listen string, agents, unitsPerShard int, leaseTTL time.Duration, inputs, fuzzSeeds int, seed int64, workers int, federated bool, timeout time.Duration) error {
	topo := dice.Demo27()
	victim := topo.Nodes[26].Prefixes[0]
	opts := dice.DeployOptions{
		Seed: seed,
		ConfigOverride: dice.ApplyConfigFaults(
			dice.MisOrigination{Router: "R12", Prefix: victim},
			dice.MissingImportFilter{Router: "R1", Peer: "R4"},
		),
		MaxEvents: 300000,
	}
	deployment, err := dice.Deploy(topo, opts)
	if err != nil {
		return err
	}
	deployment.Converge()

	ctrl := dice.NewController(dice.ControllerConfig{
		Campaign:      "demo27",
		MinAgents:     agents,
		UnitsPerShard: unitsPerShard,
		LeaseTTL:      leaseTTL,
		Logf: func(format string, args ...any) {
			fmt.Printf("control: "+format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	control.RegisterMetrics(reg, func() *control.Controller { return ctrl })
	mux := http.NewServeMux()
	mux.Handle("/", dice.NewControlHandler(ctrl))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"agents\":%d}\n", len(ctrl.AgentNames()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln)
	defer srv.Close()
	// The line agents (and the smoke driver) parse for the dial address.
	fmt.Printf("control: listening on http://%s\n", ln.Addr())

	campaignOpts := []dice.CampaignOption{
		dice.WithBudget(dice.Budget{TotalInputs: inputs}),
		dice.WithFuzzSeeds(fuzzSeeds),
		dice.WithSeed(seed),
		dice.WithClusterOptions(opts),
		dice.WithWorkers(workers),
		dice.WithRemoteExecution(ctrl),
	}
	if federated {
		campaignOpts = append(campaignOpts, dice.WithFederation(dice.PartitionByAS(topo)))
	} else {
		campaignOpts = append(campaignOpts, dice.WithStrategy(dice.AllNodesStrategy{}))
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	res, err := dice.NewCampaign(deployment, topo, campaignOpts...).Run(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("control: campaign done in %v: %d inputs explored, %d detections\n",
		time.Since(start).Round(time.Millisecond), res.InputsExplored, len(res.Detections))
	for _, d := range res.Detections {
		fmt.Printf("  detection %-18s %s (input %d)\n", d.Class, d.Violation.Key(), d.InputIndex)
	}
	stats := ctrl.RemoteStats()
	fmt.Printf("control: %d shards, %d agents, %d reassignments; wire: baseline %d B, shards %d B, results %d B\n",
		stats.Shards, stats.Agents, stats.Reassigned, stats.BaselineBytes, stats.ShardBytes, stats.ResultBytes)

	names := ctrl.AgentNames()
	counts := ctrl.AgentShardCounts()
	ids := make([]string, 0, len(names))
	for id := range names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return names[ids[i]] < names[ids[j]] })
	for _, id := range ids {
		fmt.Printf("control: agent %s ran %d shards\n", names[id], counts[id])
	}
	// Linger until every agent has seen campaign-done through a lease poll;
	// returning earlier closes the listener mid-poll and turns the agents'
	// clean protocol exit into a connection-reset failure.
	if !ctrl.AwaitDrain(5 * time.Second) {
		fmt.Println("control: exiting with undrained agents (killed or partitioned)")
	}
	return nil
}
