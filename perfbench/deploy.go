package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dice-project/dice/internal/bgp"
	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
	"github.com/dice-project/dice/internal/dice"
	"github.com/dice-project/dice/internal/faults"
	"github.com/dice-project/dice/internal/topology"
)

// deployment is one generated system under test: a topology with a planted
// mis-origination and a missing import filter, plus the cluster options the
// deployed routers and every shadow clone are built with.
type deployment struct {
	topo  *topology.Topology
	copts cluster.Options
	// victim is the prefix the mis-originating router hijacks; a correct
	// campaign must report an origin-validity violation for it.
	victim bgp.Prefix
}

// demo27 is the paper's Figure 1 deployment with the E8/E12 fault pair:
// R12 mis-originates R27's prefix and R1 lacks its import filter towards R4.
func demo27(seed int64) deployment {
	topo := topology.Demo27()
	return withFaults(topo, seed, "R12", "R1", "R4")
}

// gr100 is a seeded three-tier Gao-Rexford topology of 100 routers with the
// same fault pair, planted on routers that exist in every such topology: R12
// (a tier-2 router) mis-originates the last router's prefix, and R1 (tier 1)
// lacks its import filter towards its first neighbor.
func gr100(seed int64) deployment {
	topo := topology.GaoRexford(3, 25, 72, seed)
	peers := topo.NeighborsOf("R1")
	sort.Strings(peers)
	return withFaults(topo, seed, "R12", "R1", peers[0])
}

func withFaults(topo *topology.Topology, seed int64, hijacker, leaker, leakPeer string) deployment {
	victim := topo.Nodes[len(topo.Nodes)-1].Prefixes[0]
	return deployment{
		topo:   topo,
		victim: victim,
		copts: cluster.Options{
			Seed: seed,
			ConfigOverride: faults.ApplyConfigFaults(
				faults.MisOrigination{Router: hijacker, Prefix: victim},
				faults.MissingImportFilter{Router: leaker, Peer: leakPeer},
			),
			MaxEvents: 300000,
		},
	}
}

// deploy builds the deployment and runs it to convergence.
func (d deployment) deploy() (*cluster.Cluster, error) {
	c, err := cluster.Build(d.topo, d.copts)
	if err != nil {
		return nil, err
	}
	c.Converge()
	return c, nil
}

// firstCut takes the deployment's first consistent cut and decodes it into a
// restore-ready store: the state every clone of the first round restores.
func firstCut(c *cluster.Cluster) (*checkpoint.Store, error) {
	return checkpoint.NewStore(c.Snapshot())
}

// fingerprint canonicalizes a detection set: the sorted, deduplicated
// violation keys, one per line.
func fingerprint(keys []string) string {
	uniq := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if !uniq[k] {
			uniq[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// campaignKeys returns the violation keys of a campaign's merged detections.
func campaignKeys(r *dice.CampaignResult) []string {
	keys := make([]string, 0, len(r.Detections))
	for _, d := range r.Detections {
		keys = append(keys, d.Violation.Key())
	}
	return keys
}

// plantedFound reports whether the detection set contains the planted
// hijack: an origin-validity violation on the victim prefix. Every seed's
// campaign must find it, whatever else it finds.
func (d deployment) plantedFound(print string) error {
	want := fmt.Sprintf("|%s|true", d.victim)
	for _, line := range strings.Split(print, "\n") {
		if strings.HasPrefix(line, "origin-validity|") && strings.HasSuffix(line, want) {
			return nil
		}
	}
	return fmt.Errorf("planted mis-origination of %s not detected", d.victim)
}
