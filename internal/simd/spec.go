// Package simd implements the long-lived simulation daemon: an HTTP
// service that accepts scenario-sweep and scenario-grid jobs as JSON,
// schedules them on a shared worker budget, and streams each job's
// results back as the NDJSON wire encoding of the experiments.Sink
// event grammar.
//
// The daemon inherits every determinism guarantee of the batch CLIs:
// a job's streamed bytes are identical at any worker budget, whether
// its cells were freshly simulated, served from the completed-cell
// cache, or restored from the checkpoint of an interrupted run — so a
// client replaying the stream through the CSV sinks reconstructs the
// exact files `cmd/scenario` would have written.
package simd

import (
	"errors"
	"fmt"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

// Job kinds.
const (
	KindGrid     = "grid"
	KindScenario = "scenario"
)

// CommonSpec mirrors experiments.CommonConfig plus the protocol tau
// overrides — the execution-shaping knobs every CLI spells as
// -workers/-weightBackend/-weights/-sparse/-tauStep/-tauFinal. Values
// resolve through the same parsers as the CLI flags, so a job spec and
// a command line that spell the same experiment produce the same
// config, the same fingerprint, and byte-identical results.
type CommonSpec struct {
	// Workers is the job's worker-slot request against the daemon's
	// budget (0 = as many as the host would use, clamped to the budget).
	// Like the CLI flag, it never changes a single output bit.
	Workers int `json:"workers,omitempty"`
	// WeightBackend is the CLI -weightBackend spelling: "" or "direct",
	// or "indexed".
	WeightBackend string `json:"weight_backend,omitempty"`
	// Weights is the CLI -weights profile spec (e.g. "zipf:1.1"); empty
	// keeps ledger weights.
	Weights string `json:"weights,omitempty"`
	// Sparse is the CLI -sparse spelling: "" or "auto", "on", "off".
	Sparse string `json:"sparse,omitempty"`
	// TauStep/TauFinal override the committee taus exactly like the CLI
	// flags (0 keeps the default).
	TauStep  float64 `json:"tau_step,omitempty"`
	TauFinal float64 `json:"tau_final,omitempty"`
}

// resolve parses the spec into the experiment-layer values.
func (c CommonSpec) resolve() (experiments.CommonConfig, protocol.Params, error) {
	var common experiments.CommonConfig
	backend, err := experiments.ParseWeightBackend(c.WeightBackend)
	if err != nil {
		return common, protocol.Params{}, err
	}
	profile, err := experiments.ParseWeightProfile(c.Weights)
	if err != nil {
		return common, protocol.Params{}, err
	}
	mode, err := protocol.ParseSparseMode(c.Sparse)
	if err != nil {
		return common, protocol.Params{}, err
	}
	params := protocol.DefaultParams()
	if c.TauStep != 0 {
		params.TauStep = c.TauStep
	}
	if c.TauFinal != 0 {
		params.TauFinal = c.TauFinal
	}
	if err := params.Validate(); err != nil {
		return common, protocol.Params{}, err
	}
	common.Workers = c.Workers
	common.WeightBackend = backend
	common.WeightProfile = profile
	common.Sparse = mode
	return common, params, nil
}

// Job size caps. Config checks each before it builds anything from
// it, so a short request body cannot make the daemon allocate without
// bound: a cell allocates one stake per node and three rows of rounds
// fractions, and a grid one seed per seed-axis entry. A sweep's runs are
// its grid's seeds, so maxGridSeeds caps both.
const (
	maxGridSeeds = 10_000
	maxJobNodes  = 1_000_000
	maxJobRounds = 10_000
)

// checkSize rejects a size outside [0, limit]; 0 keeps the default, and
// the CLIs reject negative sizes too.
func checkSize(name string, v, limit int) error {
	if v < 0 || v > limit {
		return fmt.Errorf("simd: %s must be in [0, %d] (0 = default), got %d", name, limit, v)
	}
	return nil
}

// GridJobSpec is a scenario×seed grid job, mirroring the `cmd/scenario
// -full` surface: named scenarios (empty = every registered one)
// crossed with seeds 1..Seeds at Nodes nodes.
type GridJobSpec struct {
	CommonSpec
	// Scenarios names the grid's scenario axis; empty selects every
	// registered scenario.
	Scenarios []string `json:"scenarios,omitempty"`
	// Seeds is the seed-axis length: the grid runs seeds 1..Seeds
	// (default 3, at most maxGridSeeds), exactly like -fullSeeds.
	Seeds int `json:"seeds,omitempty"`
	// Nodes is the network size per cell (default 500).
	Nodes int `json:"nodes,omitempty"`
	// Rounds is the rounds per cell (default 12).
	Rounds int `json:"rounds,omitempty"`
}

// Config resolves the spec into the grid config the CLI would build
// from the equivalent flags. The spec's Weights string doubles as the
// fingerprint's weightsSpec.
func (s GridJobSpec) Config() (experiments.ScenarioGridConfig, error) {
	cfg := experiments.FullScenarioGridConfig()
	if err := errors.Join(checkSize("nodes", s.Nodes, maxJobNodes), checkSize("rounds", s.Rounds, maxJobRounds),
		checkSize("seeds", s.Seeds, maxGridSeeds)); err != nil {
		return cfg, err
	}
	common, params, err := s.CommonSpec.resolve()
	if err != nil {
		return cfg, err
	}
	cfg.CommonConfig = common
	cfg.Params = params
	if len(s.Scenarios) > 0 {
		cfg.Scenarios = s.Scenarios
	}
	if s.Nodes > 0 {
		cfg.Nodes = s.Nodes
	}
	if s.Rounds > 0 {
		cfg.Rounds = s.Rounds
	}
	seeds := s.Seeds
	if seeds == 0 {
		seeds = 3
	}
	cfg.Seeds = make([]int64, seeds)
	for i := range cfg.Seeds {
		cfg.Seeds[i] = int64(i + 1)
	}
	return cfg, nil
}

// ScenarioJobSpec is a per-scenario sweep job, mirroring the default
// `cmd/scenario` surface: Runs independent simulations of one scenario,
// streamed run by run.
type ScenarioJobSpec struct {
	CommonSpec
	// Scenario names a registered scenario (default
	// eclipse_equivocation, like the CLI).
	Scenario string `json:"scenario,omitempty"`
	// Nodes is the network size per run (default 100).
	Nodes int `json:"nodes,omitempty"`
	// Rounds is the rounds per run (default 12).
	Rounds int `json:"rounds,omitempty"`
	// Runs is the number of independent simulations (default 4).
	Runs int `json:"runs,omitempty"`
	// Seed is the base seed; run i derives its own (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// Config resolves the spec into the one-scenario grid the sweep runs
// (experiments.ScenarioConfig.Grid): run i is the cell at seed
// Seed + 7919·i, so a sweep shares the grid's cells, cache and
// checkpoint.
func (s ScenarioJobSpec) Config() (experiments.ScenarioGridConfig, error) {
	if err := errors.Join(checkSize("nodes", s.Nodes, maxJobNodes), checkSize("rounds", s.Rounds, maxJobRounds),
		checkSize("runs", s.Runs, maxGridSeeds)); err != nil {
		return experiments.ScenarioGridConfig{}, err
	}
	common, params, err := s.CommonSpec.resolve()
	if err != nil {
		return experiments.ScenarioGridConfig{}, err
	}
	name := s.Scenario
	if name == "" {
		name = adversary.EclipseEquivocation
	}
	cfg := experiments.DefaultScenarioConfig(name)
	cfg.CommonConfig = common
	cfg.Params = params
	if s.Nodes > 0 {
		cfg.Nodes = s.Nodes
	}
	if s.Rounds > 0 {
		cfg.Rounds = s.Rounds
	}
	if s.Runs > 0 {
		cfg.Runs = s.Runs
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg.Grid(), nil
}

// JobRequest is the POST /api/v1/jobs body: a tagged union over the job
// kinds.
type JobRequest struct {
	// Kind selects the payload: "grid" (the default) or "scenario".
	Kind     string           `json:"kind,omitempty"`
	Grid     *GridJobSpec     `json:"grid,omitempty"`
	Scenario *ScenarioJobSpec `json:"scenario,omitempty"`
}

// normalize fills the default kind and rejects mismatched payloads.
func (r *JobRequest) normalize() error {
	switch r.Kind {
	case "", KindGrid:
		r.Kind = KindGrid
		if r.Scenario != nil {
			return fmt.Errorf("simd: grid job carries a scenario payload")
		}
		if r.Grid == nil {
			r.Grid = &GridJobSpec{}
		}
	case KindScenario:
		if r.Grid != nil {
			return fmt.Errorf("simd: scenario job carries a grid payload")
		}
		if r.Scenario == nil {
			r.Scenario = &ScenarioJobSpec{}
		}
	default:
		return fmt.Errorf("simd: unknown job kind %q (want %q or %q)", r.Kind, KindGrid, KindScenario)
	}
	return nil
}

// resolve normalizes the request and resolves it, once, into the grid
// the job runs and the -weights spec its fingerprint digests
// (experiments.GridFingerprint). A sweep job is its one-scenario grid,
// so both kinds pass the grid driver's own Validate here, at POST.
func (r *JobRequest) resolve() (experiments.ScenarioGridConfig, string, error) {
	if err := r.normalize(); err != nil {
		return experiments.ScenarioGridConfig{}, "", err
	}
	if r.Kind == KindScenario {
		cfg, err := r.Scenario.Config()
		if err == nil {
			err = cfg.Validate()
		}
		return cfg, r.Scenario.Weights, err
	}
	cfg, err := r.Grid.Config()
	if err == nil {
		err = cfg.Validate()
	}
	return cfg, r.Grid.Weights, err
}
