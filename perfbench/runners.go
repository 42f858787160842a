package main

import (
	"context"
	"fmt"
	"io"

	"github.com/dice-project/dice/internal/checkpoint"
	"github.com/dice-project/dice/internal/cluster"
)

// A workload's cost and detection timeline depend on the seed. A run that
// cycles through several seeded instances of its workload reports figures
// that depend on the run's seed much less than any one instance does. A
// workload with only a few long rounds per window keeps one instance, so
// that every round of a run measures the same inputs.

// setupReps is how often a run sets up at least; setup_s is the median.
const setupReps = 3

// instanceSeed derives the seed of a run's k-th instance.
func instanceSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// instance is one seeded instance of a workload: its deployment, the
// deployed cluster (campaign workloads), and the reference its rounds are
// checked against.
type instance struct {
	seed int64
	dep  deployment
	live *cluster.Cluster
	want *expected
}

// expected resolves the reference an instance's rounds are checked against:
// the recorded one when refs.json has the run's seed, otherwise the
// fingerprint of the instance's first round (every later round must
// reproduce it).
type expected struct {
	ref   reference
	fixed bool
}

func (e *expected) check(res *result, what, print string) {
	if !e.fixed {
		e.ref, e.fixed = refOf(print), true
	}
	checkPrint(res, what, print, e.ref)
}

// refWorkload names the reference table a workload is checked against: the
// distributed campaign must reproduce the in-process one (serial ≡
// distributed), so it shares campaign-demo27's references.
func refWorkload(name string) string {
	if name == "distributed-demo27" {
		return "campaign-demo27"
	}
	return name
}

// newInstances derives the run's n instances from its seed.
func newInstances(o runOptions, gen func(int64) deployment, n int) []*instance {
	refs, _ := storedRefs(refWorkload(o.workload), o.seed)
	out := make([]*instance, n)
	for k := range out {
		seed := instanceSeed(o.seed, k)
		want := &expected{}
		if k < len(refs) {
			want = &expected{ref: refs[k], fixed: true}
		}
		out[k] = &instance{seed: seed, dep: gen(seed), want: want}
	}
	return out
}

// minRounds is how many rounds a window runs at least: one, or every
// instance when references are being recorded.
func minRounds(o runOptions, insts []*instance) int {
	if o.record != "" {
		return len(insts)
	}
	return 1
}

// checkRound checks a round's detections against the instance's reference
// and for the planted hijack.
func (in *instance) checkRound(res *result, what, print string) {
	in.want.check(res, fmt.Sprintf("%s (instance seed %d)", what, in.seed), print)
	err := in.dep.plantedFound(print)
	res.check(err == nil, "%s (instance seed %d): %v", what, in.seed, err)
}

// finish records the references when asked to and prints the run summary.
func finish(o runOptions, res *result, insts []*instance, out io.Writer) error {
	for _, in := range insts {
		if in.want.fixed {
			fmt.Fprintf(out, "  instance seed %d: %d detections (sha256 %.12s)\n", in.seed, in.want.ref.Detections, in.want.ref.SHA256)
		}
	}
	for _, n := range res.roundNotes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	if res.sampleNote != "" {
		fmt.Fprintf(out, "  %s\n", res.sampleNote)
	}
	if o.record == "" {
		return nil
	}
	if !res.correct() {
		return fmt.Errorf("not recording references from a failing run")
	}
	refs := make([]reference, len(insts))
	for k, in := range insts {
		if !in.want.fixed {
			return fmt.Errorf("instance seed %d never ran", in.seed)
		}
		refs[k] = in.want.ref
	}
	return recordRefs(o.record, refWorkload(o.workload), o.seed, refs)
}

// runCampaign deploys every instance, then runs campaign rounds, cycling
// through the instances, until the window closes.
func runCampaign(ctx context.Context, o runOptions, w campaignWorkload, res *result, out io.Writer) error {
	insts := newInstances(o, w.gen, w.instances)
	next := 0
	setup, err := setupTimes(max(setupReps, len(insts)), func() error {
		in := insts[next%len(insts)]
		next++
		c, err := in.dep.deploy()
		if err != nil {
			return err
		}
		if _, err := firstCut(c); err != nil {
			return err
		}
		in.live = c
		return nil
	})
	if err != nil {
		return err
	}
	if w.agents > 0 {
		// Without a recorded reference, an in-process campaign of the same
		// instance is the reference the distributed rounds must reproduce.
		local := w
		local.agents = 0
		for _, in := range insts {
			if in.want.fixed {
				continue
			}
			st, _, err := local.campaignRound(ctx, in, res, nil, roundHooks{})
			if err != nil {
				return err
			}
			in.want.check(res, "in-process reference", st.print)
		}
	}
	if o.trace {
		return traceCampaign(ctx, o, w, insts, res, out)
	}

	wire := newWireCounter(false)
	m := &meter{}
	var rounds []roundStats
	for window(m, o, len(rounds), minRounds(o, insts)) {
		in := insts[len(rounds)%len(insts)]
		var st roundStats
		wall, cpu := m.measure(func() int {
			st, _, err = w.campaignRound(ctx, in, res, wire, roundHooks{})
			return st.inputs
		})
		if err != nil {
			return err
		}
		st.wall, st.cpu = wall, cpu
		in.checkRound(res, "campaign", st.print)
		rounds = append(rounds, st)
	}
	endToEnd(res, setup, m, rounds)
	return finish(o, res, insts, out)
}

// runSoak sets every instance's deployment up once, then runs bounded soaks,
// cycling through the instances, until the window closes. Each soak deploys
// a fresh cluster outside the window.
func runSoak(ctx context.Context, o runOptions, w soakWorkload, res *result, out io.Writer) error {
	insts := newInstances(o, w.gen, w.instances)
	next := 0
	setup, err := setupTimes(max(setupReps, len(insts)), func() error {
		c, err := insts[next%len(insts)].dep.deploy()
		next++
		if err != nil {
			return err
		}
		_, err = checkpoint.NewRing(8).Push(c.Snapshot())
		return err
	})
	if err != nil {
		return err
	}
	if o.trace {
		return traceSoak(ctx, o, w, insts, res, out)
	}
	m := &meter{}
	var rounds []roundStats
	for window(m, o, len(rounds), minRounds(o, insts)) {
		in := insts[len(rounds)%len(insts)]
		st, _, err := w.soakRound(ctx, in, m, res, soakHooks{})
		if err != nil {
			return err
		}
		in.checkRound(res, "soak", st.print)
		rounds = append(rounds, st)
	}
	endToEnd(res, setup, m, rounds)
	return finish(o, res, insts, out)
}
