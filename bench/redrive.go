package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// redrive is one run a workload streamed, described well enough to
// rebuild it through the public API exactly as RunFig3 or the grid
// builds it: a population sampled from their labelled RNG stream,
// defectors picked from the same stream as RunFig3 picks them, and
// NewRunner. rows are the per-round fractions the workload streamed.
type redrive struct {
	label         string // "fig3.setup" or "scenario.setup"
	seed          int64
	nodes, rounds int
	defect        float64
	params        protocol.Params
	fanout        int
	dist          stake.Distribution
	weightBackend weight.Backend
	sparse        protocol.SparseMode
	rows          [][]float64
}

// redriveRun re-runs r with phase hooks installed. That times each
// round's proposal, vote steps and finalize and reads the network's
// message counts, which the workloads' entry points do not expose. The
// per-round fractions must equal the rows the workload streamed; a
// mismatch means the re-drive measured a different simulation.
//
// Grid and daemon workloads re-drive their honest_baseline cell, which
// the registry defines as reproducing an unscripted run bit for bit, so
// no adversary engine has to be attached (it would own the hooks).
func redriveRun(spans *spanLog, r redrive, ls *layerStats) error {
	root := spans.begin("redrive", 0)
	defer spans.end(root)
	rng := sim.NewRNG(r.seed, r.label)
	pop, err := stake.SamplePopulation(r.dist, r.nodes, rng)
	if err != nil {
		return err
	}
	behaviors := make([]protocol.Behavior, r.nodes)
	for i := range behaviors {
		behaviors[i] = protocol.Honest
	}
	if r.defect > 0 {
		for _, idx := range rng.Perm(r.nodes)[:int(r.defect*float64(r.nodes))] {
			behaviors[idx] = protocol.Selfish
		}
	}
	nr := spans.begin("new_runner", root)
	runner, err := protocol.NewRunner(protocol.Config{
		Params: r.params, Stakes: pop.Stakes, Behaviors: behaviors, Fanout: r.fanout,
		Seed: r.seed, WeightBackend: r.weightBackend, Sparse: r.sparse,
	})
	spans.end(nr)
	if err != nil {
		return err
	}

	var start time.Time
	var stepsDone []time.Time
	net := runner.Network().Stats()
	runner.SetHooks(protocol.Hooks{
		RoundStart: func(uint64) {
			start = time.Now()
			stepsDone = stepsDone[:0]
		},
		StepDone: func(_, _ uint64, _ []int) { stepsDone = append(stepsDone, time.Now()) },
		RoundEnd: func(uint64, protocol.RoundReport) {
			end := time.Now()
			round := spans.add("round", root, start, end)
			ls.roundMS = append(ls.roundMS, ms(end.Sub(start)))
			if n := len(stepsDone); n > 0 {
				spans.add("propose", round, start, stepsDone[0])
				spans.add("vote", round, stepsDone[0], stepsDone[n-1])
				spans.add("finalize", round, stepsDone[n-1], end)
				ls.proposeMS = append(ls.proposeMS, ms(stepsDone[0].Sub(start)))
				ls.voteMS = append(ls.voteMS, ms(stepsDone[n-1].Sub(stepsDone[0])))
				ls.finalizeMS = append(ls.finalizeMS, ms(end.Sub(stepsDone[n-1])))
			}
			now := runner.Network().Stats()
			ls.msgsSent += now.Sent - net.Sent
			ls.delivered += now.Delivered - net.Delivered
			ls.duplicate += now.Duplicate - net.Duplicate
			net = now
		},
	})
	reports := runner.RunRounds(r.rounds)
	if len(reports) != len(r.rows) {
		return fmt.Errorf("re-drive of seed %d ran %d rounds, the workload streamed %d", r.seed, len(reports), len(r.rows))
	}
	for i, rep := range reports {
		got := []float64{rep.FinalFrac(), rep.TentativeFrac(), rep.NoneFrac()}
		if !slices.Equal(got, r.rows[i]) {
			return fmt.Errorf("re-drive of seed %d round %d gave %v, the workload streamed %v", r.seed, i, got, r.rows[i])
		}
	}
	ls.redriven++
	return nil
}

func ms(d time.Duration) float64 { return 1e3 * d.Seconds() }
