package dice

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/node/procdriver"
	"github.com/dice-project/dice/internal/topology"
)

// TestMain lets this test binary double as the procdriver's child process:
// campaigns over proc: topologies re-exec the binary, and MaybeRunChild
// diverts those re-executions into the backend server before the test
// framework spins up.
func TestMain(m *testing.M) {
	procdriver.MaybeRunChild()
	os.Exit(m.Run())
}

// requireProcSpawn skips when the sandbox cannot fork/exec and guarantees the
// subprocess fleet is torn down (and fully reaped) when the test ends.
func requireProcSpawn(t *testing.T) {
	t.Helper()
	if err := procdriver.SpawnCheck(); err != nil {
		t.Skipf("environment cannot spawn backend subprocesses: %v", err)
	}
	t.Cleanup(func() {
		procdriver.KillAll()
		if n := procdriver.LiveChildren(); n != 0 {
			t.Errorf("%d backend subprocesses leaked", n)
		}
	})
}

// procHijackedLine is hijackedLine with every router re-tagged onto impl.
func procHijackedLine(t *testing.T, n int, impl string) (*topology.Topology, *cluster.Cluster, cluster.Options) {
	t.Helper()
	topo := topology.Line(n)
	topo.SetImpl(impl, topo.NodeNames()...)
	victim := topo.Nodes[0].Prefixes[0]
	last := topo.Nodes[n-1].Name
	opts := cluster.Options{Seed: 1, ConfigOverride: faults.ApplyConfigFaults(faults.MisOrigination{Router: last, Prefix: victim})}
	c := cluster.MustBuild(topo, opts)
	c.Converge()
	return topo, c, opts
}

// procCampaign runs the standard seeded unit over the deployment.
func procCampaign(t *testing.T, impl string, workers int) *CampaignResult {
	t.Helper()
	topo, live, copts := procHijackedLine(t, 3, impl)
	res, err := NewCampaign(live, topo,
		WithUnits(Unit{Explorer: "R2", FromPeer: "R1"}),
		WithBudget(Budget{TotalInputs: 6}),
		WithFuzzSeeds(2),
		WithSeed(7),
		WithWorkers(workers),
		WithClusterOptions(copts),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("%s campaign: %v", impl, err)
	}
	return res
}

// TestMetamorphicProcEqualsInProcess is the process-isolation leg of the
// metamorphic suite: for every wrapped speaker, the same seeded campaign run
// over proc: subprocess nodes must produce detection fingerprints
// byte-identical to the in-process run — serially and with a parallel worker
// pool, whose scheduling must not be observable in the results.
func TestMetamorphicProcEqualsInProcess(t *testing.T) {
	requireProcSpawn(t)
	for _, impl := range procdriver.Wrapped() {
		t.Run(impl, func(t *testing.T) {
			inproc := procCampaign(t, impl, 1)
			if len(inproc.Detections) == 0 {
				t.Fatalf("in-process %s campaign found nothing; equivalence is vacuous", impl)
			}
			want := detectionFingerprint(inproc.Detections)

			serial := procCampaign(t, "proc:"+impl, 1)
			if got := detectionFingerprint(serial.Detections); got != want {
				t.Errorf("proc:%s serial detections differ from in-process:\n  proc      %s\n  in-process %s", impl, got, want)
			}
			parallel := procCampaign(t, "proc:"+impl, 4)
			if got := detectionFingerprint(parallel.Detections); got != want {
				t.Errorf("proc:%s parallel detections differ from in-process:\n  proc      %s\n  in-process %s", impl, got, want)
			}
			if serial.InputsExplored != inproc.InputsExplored {
				t.Errorf("proc:%s explored %d inputs, in-process %d", impl, serial.InputsExplored, inproc.InputsExplored)
			}
		})
	}
}

// TestMetamorphicProcCrashMidUnit SIGKILLs the explorer's subprocess at the
// start of every clone execution: the campaign must surface a unit error
// (never hang), the clone pool must balance its lease ledger and discard the
// dead clone, and no subprocess or goroutine may outlive the run.
func TestMetamorphicProcCrashMidUnit(t *testing.T) {
	requireProcSpawn(t)
	goroutinesBefore := runtime.NumGoroutine()

	topo, live, copts := procHijackedLine(t, 3, "proc:obgpd")
	campaign := NewCampaign(live, topo,
		WithUnits(Unit{Explorer: "R2", FromPeer: "R1", MaxInputs: 4, FuzzSeeds: 2, Seed: 1}),
		WithSeed(1),
		WithWorkers(1),
		WithClusterOptions(copts),
		WithClonePrelude(func(shadow *cluster.Cluster) {
			if !procdriver.Kill(shadow.Router("R2")) {
				t.Errorf("shadow explorer is not a procdriver router")
			}
		}),
	)
	done := make(chan error, 1)
	go func() {
		_, err := campaign.Run(context.Background())
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign hung after subprocess crash")
	}
	if err == nil || !strings.Contains(err.Error(), "clone execute") {
		t.Fatalf("Run = %v, want a clone-execute unit error", err)
	}

	if campaign.clones == nil {
		t.Fatal("pooled campaign has no clone pool")
	}
	s := campaign.clones.Stats()
	if s.Leases != s.Releases {
		t.Errorf("lease ledger unbalanced after crash: %+v", s)
	}
	if s.Discards == 0 {
		t.Errorf("dead clone was re-pooled instead of discarded: %+v", s)
	}
	if out := campaign.clones.Outstanding(); out != 0 {
		t.Errorf("crash leaked %d outstanding clones", out)
	}

	// The live deployment is untouched; only shadow clones were killed.
	if err := live.Unhealthy(); err != nil {
		t.Errorf("live deployment unhealthy after shadow crash: %v", err)
	}

	procdriver.KillAll()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutinesBefore+3 {
		t.Errorf("goroutines leaked across crash campaign: %d before, %d after", goroutinesBefore, now)
	}
}

// TestColdProcClonesReaped: with pooling off every input runs on a cold
// FromSnapshot clone, which spawns one subprocess per proc: node. Releasing
// the clone must kill them, so after the campaign only the deployment's own
// children are alive.
func TestColdProcClonesReaped(t *testing.T) {
	requireProcSpawn(t)
	topo, live, copts := procHijackedLine(t, 3, "proc:bird")
	own := procdriver.LiveChildren()
	res, err := NewCampaign(live, topo,
		WithUnits(Unit{Explorer: "R2", FromPeer: "R1"}),
		WithBudget(Budget{TotalInputs: 3}),
		WithFuzzSeeds(1),
		WithSeed(7),
		WithWorkers(1),
		WithClusterOptions(copts),
		WithPooledClones(false),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.CloneStats.ColdBuilds == 0 {
		t.Fatal("campaign built no cold clones; the check is vacuous")
	}
	if got := procdriver.LiveChildren(); got != own {
		t.Errorf("%d subprocesses alive after %d cold clones, want the deployment's %d", got, res.CloneStats.ColdBuilds, own)
	}
}
