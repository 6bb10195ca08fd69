// Package cliutil centralises the flag surface the command-line tools
// share: every command registers -workers, -seed, the weight-oracle
// pair (-weightBackend/-weights) and the sparse-path trio
// (-sparse/-tauStep/-tauFinal) through these helpers, so the flags
// spell, default and document identically everywhere and resolve
// through one code path.
package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// Workers registers the shared run-pool width flag. Every command
// documents the same contract: the width never changes any output.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "run-pool workers (0 = GOMAXPROCS); results are identical for every value")
}

// Seed registers the shared -seed flag; usage varies per command (a
// single-run tool seeds one RNG, a sweep derives per-run seeds).
func Seed(fs *flag.FlagSet, def int64, usage string) *int64 {
	return fs.Int64("seed", def, usage)
}

// WeightFlags is the registered weight-oracle flag pair.
type WeightFlags struct {
	backend *string
	profile *string
}

// Weights registers -weightBackend and -weights.
func Weights(fs *flag.FlagSet) *WeightFlags {
	return &WeightFlags{
		backend: fs.String("weightBackend", "direct", "ledger-backed weight oracle: direct (bit-identical reads) or indexed (incremental stake index)"),
		profile: fs.String("weights", "", "synthetic weight profile, e.g. zipf:1.1 or zipf:1.1;churn@6:0.2:0 (empty = ledger weights)"),
	}
}

// Resolve parses both flags into the experiment-layer values.
func (w *WeightFlags) Resolve() (weight.Backend, experiments.WeightProfile, error) {
	backend, err := experiments.ParseWeightBackend(*w.backend)
	if err != nil {
		return 0, nil, err
	}
	profile, err := experiments.ParseWeightProfile(*w.profile)
	if err != nil {
		return 0, nil, err
	}
	return backend, profile, nil
}

// Spec returns the raw -weights string; grid fingerprints digest it
// because profiles are functions and cannot be digested directly.
func (w *WeightFlags) Spec() string { return *w.profile }

// Backend returns the raw -weightBackend string; daemon clients ship it
// verbatim in job specs and let the server resolve it, so client and
// server cannot drift on the parse.
func (w *WeightFlags) Backend() string { return *w.backend }

// SparseFlags is the registered sparse-path flag trio.
type SparseFlags struct {
	mode     *string
	tauStep  *float64
	tauFinal *float64
}

// Sparse registers -sparse, -tauStep and -tauFinal.
func Sparse(fs *flag.FlagSet) *SparseFlags {
	return &SparseFlags{
		mode:     fs.String("sparse", "auto", "protocol round path: auto, on (sparse committees) or off (dense per-node sweep)"),
		tauStep:  fs.Float64("tauStep", 0, "committee tau override: > 1 absolute seats, (0,1] fraction of stake, 0 = default"),
		tauFinal: fs.Float64("tauFinal", 0, "final-committee tau override, same units as -tauStep, 0 = default"),
	}
}

// Resolve parses the mode and applies the tau overrides to the default
// protocol params, rejecting params that fail Params.Validate.
func (s *SparseFlags) Resolve() (protocol.SparseMode, protocol.Params, error) {
	mode, err := protocol.ParseSparseMode(*s.mode)
	if err != nil {
		return 0, protocol.Params{}, err
	}
	params := protocol.DefaultParams()
	if *s.tauStep != 0 {
		params.TauStep = *s.tauStep
	}
	if *s.tauFinal != 0 {
		params.TauFinal = *s.tauFinal
	}
	if err := params.Validate(); err != nil {
		return 0, protocol.Params{}, err
	}
	return mode, params, nil
}

// Mode returns the raw -sparse string for daemon job specs.
func (s *SparseFlags) Mode() string { return *s.mode }

// TauStepValue/TauFinalValue return the raw tau overrides (0 = default)
// for daemon job specs.
func (s *SparseFlags) TauStepValue() float64  { return *s.tauStep }
func (s *SparseFlags) TauFinalValue() float64 { return *s.tauFinal }

// ClientFlags is the daemon-client flag set the simd submit/watch
// subcommands share.
type ClientFlags struct {
	addr *string
}

// Client registers -addr, the simulation daemon's base URL.
func Client(fs *flag.FlagSet) *ClientFlags {
	return &ClientFlags{
		addr: fs.String("addr", "http://127.0.0.1:8080", "simulation daemon base URL"),
	}
}

// BaseURL returns the daemon base URL without a trailing slash.
func (c *ClientFlags) BaseURL() string {
	return strings.TrimSuffix(*c.addr, "/")
}

// NoArgs rejects stray positional arguments after flag parsing.
func NoArgs(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return nil
}
