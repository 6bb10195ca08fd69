package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// SimConfig parameterises the raw protocol simulation cmd/algosim runs:
// Runs independent BA* runs over U{1..50} stakes in which Mix names the
// misbehaving nodes, averaged round by round. Run i uses seed
// Seed + 7919·i, so a single run reproduces Seed itself.
type SimConfig struct {
	Nodes, Rounds, Runs int
	Mix                 BehaviorMix
	Fanout              int     // gossip fan-out; <= 0 selects the protocol's default
	Loss                float64 // protocol.Config.LossProb: 0 selects DefaultLossProb, negative runs lossless
	Seed                int64
	Params              protocol.Params
	Workers             int // run-pool width (0 = GOMAXPROCS); every width gives the same result
	WeightBackend       weight.Backend
	WeightProfile       WeightProfile
	Sparse              protocol.SparseMode
	Trace               *obs.Trace // records run 0 when non-nil
}

// simRun is one run's decided-round count, and the chain height and
// gossip counters of its final state.
type simRun struct {
	decided, height int
	gossip          network.Stats
}

// SimResult holds the per-round means over runs of the final, tentative
// and none fractions.
type SimResult struct {
	Config                 SimConfig
	Final, Tentative, None []float64
	runs                   []simRun
}

// RunSim executes the simulation.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if cfg.Nodes < 2 || cfg.Rounds < 0 || cfg.Runs < 1 {
		return nil, errors.New("experiments: sim needs >=2 nodes, >=0 rounds and >=1 run")
	}
	// Each run writes only its own entry of res.runs; the pool returns
	// after every run has finished.
	res := &SimResult{Config: cfg, runs: make([]simRun, cfg.Runs)}
	cells, err := sweepArenas(cfg.Runs, cfg.Workers,
		func(run int, arena *protocol.Arena) (GridCell, error) {
			out := &res.runs[run]
			spec := runSpec{
				setup: "algosim", seed: cfg.Seed + int64(run)*7919,
				nodes: cfg.Nodes, rounds: cfg.Rounds, fanout: cfg.Fanout, loss: cfg.Loss,
				params: cfg.Params, stakes: stake.UniformInt{A: 1, B: 50}, mix: cfg.Mix,
				CommonConfig: CommonConfig{WeightBackend: cfg.WeightBackend, WeightProfile: cfg.WeightProfile, Sparse: cfg.Sparse},
				observe: func(r *protocol.Runner, _ *rand.Rand, _ int) {
					out.height, out.gossip = r.Canonical().Len(), r.Network().Stats()
				},
			}
			if run == 0 {
				spec.Trace = cfg.Trace // single-writer: first run only
			}
			c, decided, err := simulate(spec, arena)
			out.decided = decided
			return c, err
		})
	if err != nil {
		return nil, err
	}
	res.Final, res.Tentative, res.None, err = outcomeMeans(cells, runpool.MeanColumns)
	return res, err
}

// Table renders the per-round mean outcome fractions.
func (r *SimResult) Table() *stats.Table {
	t := &stats.Table{}
	t.AddColumn("round", indexColumn(r.Config.Rounds))
	t.AddColumn("final", r.Final)
	t.AddColumn("tentative", r.Tentative)
	t.AddColumn("none", r.None)
	return t
}

// WriteSummary prints one line: a single run's decided rounds, chain
// height and gossip counters, or the means of the first two over runs.
func (r *SimResult) WriteSummary(w io.Writer) error {
	cfg := r.Config
	meanFinal, _ := stats.Mean(r.Final) // zero rounds have no mean and print 0.0%
	var err error
	if cfg.Runs == 1 {
		run := r.runs[0]
		_, err = fmt.Fprintf(w, "%d/%d rounds decided; mean final fraction %.1f%%; chain height %d; gossip: %+v\n",
			run.decided, cfg.Rounds, 100*meanFinal, run.height, run.gossip)
	} else {
		_, err = fmt.Fprintf(w, "%d runs: mean %.1f/%d rounds decided; mean final fraction %.1f%%; mean chain height %.1f\n",
			cfg.Runs, runpool.MeanOf(r.runs, func(s simRun) float64 { return float64(s.decided) }),
			cfg.Rounds, 100*meanFinal, runpool.MeanOf(r.runs, func(s simRun) float64 { return float64(s.height) }))
	}
	return err
}
