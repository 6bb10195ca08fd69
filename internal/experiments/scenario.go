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

// ScenarioConfig parameterises one adversary-scenario sweep: Runs
// independent simulations of the named scenario over an otherwise honest
// population, aggregated like the figure experiments.
type ScenarioConfig struct {
	// Scenario names a registered scenario (see internal/adversary
	// Builtin) to script over each run.
	Scenario string
	// Nodes is the network size per run.
	Nodes int
	// Rounds is the number of simulated rounds per run.
	Rounds int
	// Runs is the number of independent simulations aggregated.
	Runs int
	// Fanout is the gossip fan-out (paper: 5).
	Fanout int
	// TrimFrac is the trimmed-mean fraction for per-round aggregation.
	TrimFrac float64
	// Seed drives all randomness; run i derives its own seed from it.
	Seed int64
	// Params overrides the protocol constants.
	Params protocol.Params
	// StakeDist draws per-node stakes (paper: U{1..50}).
	StakeDist stake.Distribution
	// CommonConfig supplies Workers, WeightBackend, WeightProfile,
	// Sparse and Sink — the execution-shaping knobs shared by every
	// sweep config. Sparse combined with absolute committee taus in
	// Params scales a sweep to populations far beyond the paper's 100
	// nodes.
	CommonConfig
}

// DefaultScenarioConfig is a laptop-scale sweep of the named scenario.
func DefaultScenarioConfig(scenario string) ScenarioConfig {
	return ScenarioConfig{
		Scenario:  scenario,
		Nodes:     100,
		Rounds:    12,
		Runs:      4,
		Fanout:    5,
		TrimFrac:  0.20,
		Seed:      1,
		Params:    protocol.DefaultParams(),
		StakeDist: stake.UniformInt{A: 1, B: 50},
	}
}

// ScenarioResult aggregates a scenario sweep: per-round outcome
// fractions (trimmed means across runs) plus the merged safety/liveness
// audit.
type ScenarioResult struct {
	Config   ScenarioConfig
	Scenario adversary.Scenario
	// Final/Tentative/None are per-round outcome fractions.
	Final, Tentative, None []float64
	// Audit merges every run's audit report.
	Audit adversary.Report
	// RunAudits holds the per-run reports, run-indexed.
	RunAudits []adversary.Report
}

// Grid returns the sweep as the one-scenario grid it runs: run i is the
// cell (Scenario, Seed + 7919·i).
func (cfg ScenarioConfig) Grid() ScenarioGridConfig {
	seeds := make([]int64, max(cfg.Runs, 0))
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)*7919
	}
	return ScenarioGridConfig{
		Scenarios:    []string{cfg.Scenario},
		Seeds:        seeds,
		Nodes:        cfg.Nodes,
		Rounds:       cfg.Rounds,
		Fanout:       cfg.Fanout,
		Params:       cfg.Params,
		StakeDist:    cfg.StakeDist,
		CommonConfig: cfg.CommonConfig,
	}
}

// RunScenario executes the sweep as its one-scenario grid (see Grid)
// through the deterministic run pool, streams each run into cfg.Sink as
// the grid cell it is, then folds the runs into trimmed means and the
// merged audit.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Nodes < 10 || cfg.Rounds < 1 || cfg.Runs < 1 {
		return nil, errors.New("experiments: scenario needs >=10 nodes, >=1 round, >=1 run")
	}
	if cfg.StakeDist == nil {
		cfg.StakeDist = stake.UniformInt{A: 1, B: 50}
	}
	grid := cfg.Grid()
	scenarios, err := resolveGrid(&grid)
	if err != nil {
		return nil, err
	}
	cells, err := sweepArenas(cfg.Runs, cfg.Workers,
		func(run int, arena *protocol.Arena) (GridCell, error) {
			return simulateGridCell(grid, scenarios, run, arena)
		})
	if err != nil {
		return nil, err
	}
	if sink := instrumentSink(cfg.Sink); sink != nil {
		for run := range cells {
			c := &cells[run]
			if err := emitGridCell(sink, Cell{Index: run, Name: c.Scenario, Seed: c.Seed}, c); err != nil {
				return nil, err
			}
		}
	}
	result := &ScenarioResult{Config: cfg, Scenario: scenarios[0], RunAudits: make([]adversary.Report, len(cells))}
	if result.Final, result.Tentative, result.None, err = outcomeMeans(cells, trimmedMean(cfg.TrimFrac)); err != nil {
		return nil, err
	}
	for i, c := range cells {
		result.RunAudits[i] = c.Audit
		result.Audit.Merge(c.Audit)
	}
	return result, nil
}

// Table renders the per-round outcome fractions.
func (r *ScenarioResult) Table() *stats.Table {
	c := GridCell{Final: r.Final, Tentative: r.Tentative, None: r.None}
	return c.Table()
}

// AuditTable renders the merged audit counters as a one-row table, the
// machine-readable safety/liveness summary written next to the figures.
func (r *ScenarioResult) AuditTable() *stats.Table {
	t := &stats.Table{}
	auditTableColumns(t, []adversary.Report{r.Audit})
	return t
}

// WriteSummary prints the scenario headline plus the merged audit.
func (r *ScenarioResult) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "scenario %s: %s\n", r.Scenario.Name, r.Scenario.Description); err != nil {
		return err
	}
	return r.Audit.WriteSummary(w)
}
