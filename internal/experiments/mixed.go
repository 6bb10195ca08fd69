package experiments

import (
	"errors"
	"fmt"
	"io"

	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// BehaviorMix is one population composition for the mixed-behaviour
// sweep: fractions of selfish, malicious and faulty nodes (the remainder
// is honest).
type BehaviorMix struct {
	Selfish   float64
	Malicious float64
	Faulty    float64
}

// Valid reports whether the fractions are sane.
func (m BehaviorMix) Valid() bool {
	for _, f := range []float64{m.Selfish, m.Malicious, m.Faulty} {
		if f < 0 || f > 1 {
			return false
		}
	}
	return m.Selfish+m.Malicious+m.Faulty <= 1
}

// assign marks the mix's nodes in behaviors by walking perm: its first
// Selfish·n entries turn selfish, the next Malicious·n malicious and the
// next Faulty·n faulty (n = len(behaviors)).
func (m BehaviorMix) assign(behaviors []protocol.Behavior, perm []int) {
	n, idx := len(behaviors), 0
	for _, class := range []struct {
		frac float64
		b    protocol.Behavior
	}{{m.Selfish, protocol.Selfish}, {m.Malicious, protocol.Malicious}, {m.Faulty, protocol.Faulty}} {
		for k := 0; k < int(class.frac*float64(n)) && idx < n; k++ {
			behaviors[perm[idx]] = class.b
			idx++
		}
	}
}

// Label renders the mix compactly.
func (m BehaviorMix) Label() string {
	return fmt.Sprintf("s%02.0f_m%02.0f_f%02.0f", m.Selfish*100, m.Malicious*100, m.Faulty*100)
}

// MixedConfig parameterises the sweep: the paper's Fig. 3 isolates
// selfish defection; this extension crosses it with the other two
// behaviour classes of Sec. III-C to show their distinct liveness
// signatures (selfish nodes also stop relaying; malicious nodes vote but
// adversarially; faulty nodes silently disappear).
type MixedConfig struct {
	Nodes  int
	Rounds int
	Runs   int
	Mixes  []BehaviorMix
	Seed   int64
	Params protocol.Params
	// Workers bounds the run pool's parallelism (0 = GOMAXPROCS).
	Workers int
	// Sink optionally receives each mix as one cell with a single
	// aggregated row.
	Sink Sink
}

// mixedColumns is the sink schema: one averaged row per mix.
var mixedColumns = []string{"final_frac", "none_frac", "decide_rate"}

// DefaultMixedConfig sweeps a selfish / malicious / faulty grid at 10%.
func DefaultMixedConfig() MixedConfig {
	return MixedConfig{
		Nodes:  100,
		Rounds: 12,
		Runs:   4,
		Mixes: []BehaviorMix{
			{},                // all honest baseline
			{Selfish: 0.10},   // Fig. 3's axis
			{Malicious: 0.10}, // byzantine voters
			{Faulty: 0.10},    // silent crashes
			{Selfish: 0.05, Malicious: 0.05, Faulty: 0.05},
		},
		Seed:   1,
		Params: protocol.DefaultParams(),
	}
}

// mixedRun is one simulation's summed outcome fractions.
type mixedRun struct {
	finalSum, noneSum, decided float64
}

// MixedRow is the averaged result of one mix.
type MixedRow struct {
	Mix        BehaviorMix
	FinalFrac  float64
	NoneFrac   float64
	DecideRate float64
}

// MixedResult bundles the sweep.
type MixedResult struct {
	Config MixedConfig
	Rows   []MixedRow
}

// RunMixed executes the sweep.
func RunMixed(cfg MixedConfig) (*MixedResult, error) {
	if cfg.Nodes < 10 || cfg.Rounds < 1 || cfg.Runs < 1 || len(cfg.Mixes) == 0 {
		return nil, errors.New("experiments: mixed sweep needs nodes, rounds, runs and mixes")
	}
	cfg.Sink = instrumentSink(cfg.Sink)
	res := &MixedResult{Config: cfg}
	for mi, mix := range cfg.Mixes {
		runs, err := sweepArenas(cfg.Runs, cfg.Workers, func(run int, arena *protocol.Arena) (mixedRun, error) {
			c, decided, err := simulate(runSpec{
				setup: "mixed.setup", seed: cfg.Seed + int64(mi)*104729 + int64(run)*7919,
				nodes: cfg.Nodes, rounds: cfg.Rounds, params: cfg.Params,
				stakes: stake.UniformInt{A: 1, B: 50}, mix: mix,
			}, arena)
			out := mixedRun{decided: float64(decided)}
			for round := range c.Final {
				out.finalSum += c.Final[round]
				out.noneSum += c.None[round]
			}
			return out, err
		})
		if err != nil {
			return nil, err
		}
		row := runpool.Accumulate(runs, MixedRow{Mix: mix}, func(r MixedRow, m mixedRun) MixedRow {
			r.FinalFrac += m.finalSum
			r.NoneFrac += m.noneSum
			r.DecideRate += m.decided
			return r
		})
		denom := float64(cfg.Runs * cfg.Rounds)
		row.FinalFrac /= denom
		row.NoneFrac /= denom
		row.DecideRate /= denom
		if cfg.Sink != nil {
			cell := Cell{Index: mi, Name: mix.Label(), Seed: cfg.Seed + int64(mi)*104729}
			if err := cfg.Sink.CellStart(cell, mixedColumns); err != nil {
				return nil, err
			}
			values := []float64{row.FinalFrac, row.NoneFrac, row.DecideRate}
			if err := cfg.Sink.Row(cell, Row{Index: 0, Values: values}); err != nil {
				return nil, err
			}
			if err := cfg.Sink.CellDone(cell); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep.
func (r *MixedResult) Table() *stats.Table {
	t := &stats.Table{}
	selfish := make([]float64, len(r.Rows))
	malicious := make([]float64, len(r.Rows))
	faulty := make([]float64, len(r.Rows))
	final := make([]float64, len(r.Rows))
	none := make([]float64, len(r.Rows))
	decide := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		selfish[i] = row.Mix.Selfish
		malicious[i] = row.Mix.Malicious
		faulty[i] = row.Mix.Faulty
		final[i] = row.FinalFrac
		none[i] = row.NoneFrac
		decide[i] = row.DecideRate
	}
	t.AddColumn("selfish", selfish)
	t.AddColumn("malicious", malicious)
	t.AddColumn("faulty", faulty)
	t.AddColumn("final_frac", final)
	t.AddColumn("none_frac", none)
	t.AddColumn("decide_rate", decide)
	return t
}

// WriteSummary prints one line per mix.
func (r *MixedResult) WriteSummary(w io.Writer) error {
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w,
			"%-14s final %5.1f%%  none %5.1f%%  decided %5.1f%%\n",
			row.Mix.Label(), 100*row.FinalFrac, 100*row.NoneFrac, 100*row.DecideRate); err != nil {
			return err
		}
	}
	return nil
}
