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

// WeakSyncConfig parameterises the asynchrony-recovery experiment: a
// deterministic weak-synchrony window is injected mid-simulation to
// reproduce the tentative-block spike and subsequent recovery the paper
// highlights in Fig. 3-(c) ("in round #17 the asynchrony of network has
// caused an increase in the number of nodes that have extracted tentative
// blocks ... in round #18 network becomes synchronous again").
type WeakSyncConfig struct {
	Nodes      int
	Rounds     int
	Runs       int
	Defection  float64
	WindowFrom uint64
	WindowTo   uint64
	Seed       int64
	Params     protocol.Params
	// Workers bounds the run pool's parallelism (0 = GOMAXPROCS).
	Workers int
	// Sink optionally receives each run as one cell of per-round
	// outcome rows.
	Sink Sink
}

// DefaultWeakSyncConfig injects a 3-round window in the middle of a
// 24-round run at 10% defection.
func DefaultWeakSyncConfig() WeakSyncConfig {
	params := protocol.DefaultParams()
	params.AsyncProb = 0 // only the deterministic window degrades
	return WeakSyncConfig{
		Nodes:      100,
		Rounds:     24,
		Runs:       6,
		Defection:  0.10,
		WindowFrom: 9,
		WindowTo:   11,
		Seed:       1,
		Params:     params,
	}
}

// WeakSyncResult carries the averaged outcome series and the derived
// spike/recovery metrics.
type WeakSyncResult struct {
	Config    WeakSyncConfig
	Final     []float64
	Tentative []float64
	None      []float64
}

// RunWeakSync executes the experiment.
func RunWeakSync(cfg WeakSyncConfig) (*WeakSyncResult, error) {
	if cfg.Nodes < 10 || cfg.Rounds < 4 || cfg.Runs < 1 {
		return nil, errors.New("experiments: weaksync needs >=10 nodes, >=4 rounds, >=1 run")
	}
	if cfg.WindowFrom < 2 || cfg.WindowTo >= uint64(cfg.Rounds) || cfg.WindowFrom > cfg.WindowTo {
		return nil, errors.New("experiments: window must sit strictly inside the run")
	}
	runs, err := sweepArenas(cfg.Runs, cfg.Workers,
		func(run int, arena *protocol.Arena) (GridCell, error) {
			c, _, err := simulate(runSpec{
				setup: "weaksync.setup", seed: cfg.Seed + int64(run)*7919,
				nodes: cfg.Nodes, rounds: cfg.Rounds, params: cfg.Params,
				stakes: stake.UniformInt{A: 1, B: 50}, mix: BehaviorMix{Selfish: cfg.Defection},
				windowFrom: cfg.WindowFrom, windowTo: cfg.WindowTo,
			}, arena)
			return c, err
		})
	if err != nil {
		return nil, err
	}
	// Stream every run as one cell before averaging.
	if err := emitRunCells(instrumentSink(cfg.Sink), 0, "weaksync", runs); err != nil {
		return nil, err
	}
	res := &WeakSyncResult{Config: cfg}
	if res.Final, res.Tentative, res.None, err = outcomeMeans(runs, runpool.MeanColumns); err != nil {
		return nil, err
	}
	return res, nil
}

// windowMean averages xs over [from, to] (1-based round indices). A from
// of 0 is clamped to round 1: r-1 would otherwise index xs at -1 and
// panic (or, upstream, WindowFrom-1 would wrap around to MaxUint64).
func windowMean(xs []float64, from, to uint64) float64 {
	if from == 0 {
		from = 1
	}
	sum, n := 0.0, 0.0
	for r := from; r <= to && int(r) <= len(xs); r++ {
		sum += xs[r-1]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// preWindow is the last healthy round before the degraded window, 0 when
// the window starts at round 0 (guarding the uint64 underflow of
// WindowFrom-1).
func (r *WeakSyncResult) preWindow() uint64 {
	if r.Config.WindowFrom == 0 {
		return 0
	}
	return r.Config.WindowFrom - 1
}

// SpikeRatio compares the non-final fraction (tentative + none) inside
// the degraded window against the healthy rounds before it.
func (r *WeakSyncResult) SpikeRatio() float64 {
	before := windowMean(r.Final, 1, r.preWindow())
	during := windowMean(r.Final, r.Config.WindowFrom, r.Config.WindowTo)
	lossBefore := 1 - before
	lossDuring := 1 - during
	if lossBefore <= 0 {
		lossBefore = 1e-9
	}
	return lossDuring / lossBefore
}

// Recovered reports whether the post-window final fraction returns to at
// least frac of the pre-window level.
func (r *WeakSyncResult) Recovered(frac float64) bool {
	before := windowMean(r.Final, 1, r.preWindow())
	// Allow a couple of catch-up rounds after the window closes.
	after := windowMean(r.Final, r.Config.WindowTo+3, uint64(r.Config.Rounds))
	return after >= frac*before
}

// Table renders the series.
func (r *WeakSyncResult) Table() *stats.Table {
	c := GridCell{Final: r.Final, Tentative: r.Tentative, None: r.None}
	return c.Table()
}

// WriteSummary prints the spike and recovery metrics.
func (r *WeakSyncResult) WriteSummary(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"degraded window rounds %d-%d: consensus-loss spike x%.1f, recovered=%v\n",
		r.Config.WindowFrom, r.Config.WindowTo, r.SpikeRatio(), r.Recovered(0.9))
	return err
}
