package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// CostsConfig parameterises the cost-accounting experiment: run the
// protocol simulator with task metering and compare the measured
// per-behaviour expenditure against the Eq. 1–2 role-cost aggregates.
type CostsConfig struct {
	Nodes     int
	Rounds    int
	Defection float64
	Seed      int64
	TaskCosts game.TaskCosts
}

// DefaultCostsConfig runs 100 nodes for 12 rounds at 10% defection.
func DefaultCostsConfig() CostsConfig {
	return CostsConfig{
		Nodes:     100,
		Rounds:    12,
		Defection: 0.10,
		Seed:      1,
		TaskCosts: game.DefaultTaskCosts(),
	}
}

// CostsResult carries the measured per-behaviour per-round expenditure.
type CostsResult struct {
	Config CostsConfig
	// HonestPerRound is the mean per-round cost of an honest node in
	// Algos; SelfishPerRound likewise for defectors.
	HonestPerRound  float64
	SelfishPerRound float64
	// HonestCounts / SelfishCounts are the pooled task counters.
	HonestCounts  protocol.TaskCounts
	SelfishCounts protocol.TaskCounts
	honestNodes   int
	selfishNodes  int
}

// RunCosts executes the experiment.
func RunCosts(cfg CostsConfig) (*CostsResult, error) {
	if cfg.Nodes < 10 || cfg.Rounds < 1 {
		return nil, errors.New("experiments: costs needs >=10 nodes and >=1 round")
	}
	res := &CostsResult{Config: cfg}
	arena := arenaPool.Get().(*protocol.Arena)
	_, _, err := simulate(runSpec{
		setup: "costs.setup", seed: cfg.Seed,
		nodes: cfg.Nodes, rounds: cfg.Rounds, params: protocol.DefaultParams(),
		stakes: stake.UniformInt{A: 1, B: 50}, mix: BehaviorMix{Selfish: cfg.Defection},
		observe: func(r *protocol.Runner, setup *rand.Rand, done int) {
			if done == 0 {
				// A little transaction load so verification costs register.
				for i := 0; i < 32; i++ {
					from := setup.Intn(cfg.Nodes)
					to := setup.Intn(cfg.Nodes)
					if from != to {
						r.SubmitTransactionFee(from, to, 0.5, 0.01)
					}
				}
				return
			}
			for i, counts := range r.TaskCounts() {
				if r.Behavior(i) == protocol.Selfish {
					res.SelfishCounts.Add(counts)
					res.selfishNodes++
				} else {
					res.HonestCounts.Add(counts)
					res.honestNodes++
				}
			}
		},
	}, arena)
	putArena(arena) // never deferred: see arenaLease.release
	if err != nil {
		return nil, err
	}
	perRound := float64(cfg.Rounds)
	if res.honestNodes > 0 {
		res.HonestPerRound = res.HonestCounts.Cost(cfg.TaskCosts) / float64(res.honestNodes) / perRound
	}
	if res.selfishNodes > 0 {
		res.SelfishPerRound = res.SelfishCounts.Cost(cfg.TaskCosts) / float64(res.selfishNodes) / perRound
	}
	return res, nil
}

// Table renders the per-behaviour costs in µAlgos per round.
func (r *CostsResult) Table() *stats.Table {
	t := &stats.Table{}
	t.AddColumn("honest_microalgos_round", []float64{r.HonestPerRound / game.MicroAlgo})
	t.AddColumn("selfish_microalgos_round", []float64{r.SelfishPerRound / game.MicroAlgo})
	roles := r.Config.TaskCosts.Roles()
	t.AddColumn("model_cK_microalgos", []float64{roles.Other / game.MicroAlgo})
	t.AddColumn("model_cso_microalgos", []float64{roles.Sortition / game.MicroAlgo})
	return t
}

// WriteSummary prints measured-vs-model cost lines.
func (r *CostsResult) WriteSummary(w io.Writer) error {
	roles := r.Config.TaskCosts.Roles()
	_, err := fmt.Fprintf(w,
		"measured per-round cost: honest %.2f µAlgos, selfish %.2f µAlgos\n"+
			"cost model (Eq. 2): c^K = %.2f µAlgos (others), c^M = %.2f, c^L = %.2f, c_so = %.2f\n"+
			"selfish nodes pay exactly c_so; honest nodes pay c^K plus their realised role duties\n",
		r.HonestPerRound/game.MicroAlgo, r.SelfishPerRound/game.MicroAlgo,
		roles.Other/game.MicroAlgo, roles.Committee/game.MicroAlgo,
		roles.Leader/game.MicroAlgo, roles.Sortition/game.MicroAlgo)
	return err
}
