// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver has a scaled-down default
// configuration suitable for tests and benchmarks plus a Full variant
// with the paper's parameters, and renders its results as stats tables.
package experiments

import (
	"errors"
	"fmt"
	"io"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// Fig3Config parameterises the defection experiment of Fig. 3: the share
// of nodes extracting final / tentative / no blocks per round under
// increasing defection rates.
type Fig3Config struct {
	// Nodes is the network size per run.
	Nodes int
	// Rounds is the number of simulated rounds per run.
	Rounds int
	// Runs is the number of independent simulations averaged per rate.
	Runs int
	// DefectionRates are the fractions of selfish nodes to sweep
	// (paper: 5%..30% in steps of 5%).
	DefectionRates []float64
	// Fanout is the gossip fan-out (paper: 5).
	Fanout int
	// TrimFrac is the trimmed-mean fraction when averaging runs
	// (paper: 0.20).
	TrimFrac float64
	// Seed drives all randomness.
	Seed int64
	// Params overrides the protocol constants (zero value = defaults).
	Params protocol.Params
	// StakeDist draws per-node stakes (paper: U{1..50}).
	StakeDist stake.Distribution
	// Scenario optionally attaches a registered adversary scenario to
	// every run (see internal/adversary). The honest-baseline scenario
	// leaves the figure bit-for-bit identical to an unscripted run — the
	// golden tests pin that equivalence.
	Scenario string
	// CommonConfig supplies Workers, WeightBackend, WeightProfile,
	// Sparse and Sink — the execution-shaping knobs shared by every
	// sweep config. LargeFig3Config's absolute committee taus are what
	// make the zero-value SparseAuto engage the sparse round path.
	CommonConfig
}

// DefaultFig3Config is a laptop-scale configuration that preserves the
// figure's shape (collapse ordering across defection rates).
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Nodes:          100,
		Rounds:         30,
		Runs:           8,
		DefectionRates: []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30},
		Fanout:         5,
		TrimFrac:       0.20,
		Seed:           1,
		Params:         protocol.DefaultParams(),
		StakeDist:      stake.UniformInt{A: 1, B: 50},
	}
}

// FullFig3Config matches the paper's 100-run averaging.
func FullFig3Config() Fig3Config {
	cfg := DefaultFig3Config()
	cfg.Runs = 100
	cfg.Rounds = 50
	return cfg
}

// LargeFig3Config scales the defection experiment to populations far
// beyond the paper's (50k, 500k): absolute committee taus replace the
// fractional defaults — real Algorand committees are a few hundred seats
// regardless of network size — which makes the run sparse-eligible, and
// the run/round counts are trimmed so a 500k-node sweep completes on one
// machine. Fractions, not counts, are reported, so results remain
// directly comparable across population sizes.
func LargeFig3Config(nodes int) Fig3Config {
	cfg := DefaultFig3Config()
	cfg.Nodes = nodes
	cfg.Rounds = 20
	cfg.Runs = 3
	cfg.Params.TauStep = 200
	cfg.Params.TauFinal = 300
	return cfg
}

// Fig3Series is one panel of Fig. 3: per-round outcome fractions for a
// given defection rate, averaged over runs with a trimmed mean.
type Fig3Series struct {
	Rate      float64
	Final     []float64
	Tentative []float64
	None      []float64
}

// Fig3Result bundles all panels.
type Fig3Result struct {
	Config Fig3Config
	Series []Fig3Series
}

// RunFig3 executes the experiment.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	if cfg.Nodes < 10 || cfg.Rounds < 1 || cfg.Runs < 1 {
		return nil, errors.New("experiments: fig3 needs >=10 nodes, >=1 round, >=1 run")
	}
	if cfg.StakeDist == nil {
		cfg.StakeDist = stake.UniformInt{A: 1, B: 50}
	}
	var scn *adversary.Scenario
	if cfg.Scenario != "" {
		s, ok := adversary.Lookup(cfg.Scenario)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown scenario %q", cfg.Scenario)
		}
		scn = &s
	}
	cfg.Sink = instrumentSink(cfg.Sink)
	result := &Fig3Result{Config: cfg}
	for rateIdx, rate := range cfg.DefectionRates {
		series, err := runFig3Rate(cfg, scn, rateIdx, rate)
		if err != nil {
			return nil, fmt.Errorf("fig3 rate %.0f%%: %w", rate*100, err)
		}
		result.Series = append(result.Series, series)
	}
	return result, nil
}

// fig3RunSeed derives one run's seed; the rate term keeps panels'
// random streams disjoint.
func fig3RunSeed(cfg Fig3Config, rate float64, run int) int64 {
	return cfg.Seed + int64(run)*7919 + int64(rate*1e4)
}

// runFig3Rate runs one panel: cfg.Runs simulations with a rate share of
// selfish defectors, each streamed as one cell, then trimmed-averaged.
func runFig3Rate(cfg Fig3Config, scn *adversary.Scenario, rateIdx int, rate float64) (Fig3Series, error) {
	runs, err := sweepArenas(cfg.Runs, cfg.Workers,
		func(run int, arena *protocol.Arena) (GridCell, error) {
			// Random uniform choice of defectors, as in the paper.
			spec := runSpec{
				setup: "fig3.setup", seed: fig3RunSeed(cfg, rate, run),
				nodes: cfg.Nodes, rounds: cfg.Rounds, fanout: cfg.Fanout,
				params: cfg.Params, stakes: cfg.StakeDist,
				mix: BehaviorMix{Selfish: rate}, scenario: scn, CommonConfig: cfg.CommonConfig,
			}
			if rateIdx != 0 || run != 0 {
				spec.Trace = nil // single-writer: first run only
			}
			c, _, err := simulate(spec, arena)
			return c, err
		})
	if err != nil {
		return Fig3Series{}, err
	}
	if err := emitRunCells(cfg.Sink, rateIdx*cfg.Runs, fmt.Sprintf("d%02.0f", rate*100), runs); err != nil {
		return Fig3Series{}, err
	}
	series := Fig3Series{Rate: rate}
	series.Final, series.Tentative, series.None, err = outcomeMeans(runs, trimmedMean(cfg.TrimFrac))
	return series, err
}

// MeanFinal returns the average final-block fraction across all rounds of
// the series, the headline number used to compare panels.
func (s Fig3Series) MeanFinal() float64 {
	m, err := stats.Mean(s.Final)
	if err != nil {
		return 0
	}
	return m
}

// MeanNone returns the average no-block fraction across rounds.
func (s Fig3Series) MeanNone() float64 {
	m, err := stats.Mean(s.None)
	if err != nil {
		return 0
	}
	return m
}

// TailFinal returns the mean final fraction over the last quarter of the
// rounds, capturing late-simulation collapse.
func (s Fig3Series) TailFinal() float64 {
	start := len(s.Final) * 3 / 4
	m, err := stats.Mean(s.Final[start:])
	if err != nil {
		return 0
	}
	return m
}

// Table renders the per-round outcome fractions of every panel.
func (r *Fig3Result) Table() *stats.Table {
	t := &stats.Table{}
	t.AddColumn("round", indexColumn(r.Config.Rounds))
	for _, s := range r.Series {
		prefix := fmt.Sprintf("d%02.0f_", s.Rate*100)
		t.AddColumn(prefix+"final", s.Final)
		t.AddColumn(prefix+"tentative", s.Tentative)
		t.AddColumn(prefix+"none", s.None)
	}
	return t
}

// WriteSummary prints one line per panel with headline fractions.
func (r *Fig3Result) WriteSummary(w io.Writer) error {
	for _, s := range r.Series {
		_, err := fmt.Fprintf(w,
			"defection %4.0f%%: mean final %5.1f%%  tail final %5.1f%%  mean none %5.1f%%\n",
			s.Rate*100, 100*s.MeanFinal(), 100*s.TailFinal(), 100*s.MeanNone())
		if err != nil {
			return err
		}
	}
	return nil
}
