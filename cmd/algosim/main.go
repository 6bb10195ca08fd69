// Command algosim runs the Algorand BA* protocol simulator: a gossip
// network of honest, selfish (defecting), malicious and faulty nodes
// attempting to finalise blocks round after round. It prints a per-round
// outcome table (the data behind the paper's Fig. 3) and a summary.
//
// With -runs > 1 it averages the per-round outcome fractions over
// independent simulations fanned out across the shared deterministic run
// pool; -workers caps the pool (0 = GOMAXPROCS) without changing any
// output.
//
// -sparse selects the protocol round path: "auto" (default) switches to
// the centralized sparse-committee sampler for populations of 4096+
// nodes when the committee taus are absolute, "on" forces it, "off"
// forces the dense per-node sweep. -tauStep/-tauFinal override the
// committee sizes; values > 1 are absolute seat counts (required for
// sparse runs), values in (0, 1] are fractions of total stake.
//
// -weightBackend selects the ledger-backed weight oracle sortition
// reads; -weights replaces ledger weights with a synthetic per-run
// profile (e.g. "zipf:1.3:40"). Both match cmd/scenario's flags; see
// internal/weight.
//
// Usage:
//
//	algosim [-nodes N] [-rounds R] [-runs M] [-workers W]
//	        [-defect F] [-malicious F] [-faulty F]
//	        [-fanout K] [-loss P] [-seed S] [-csv]
//	        [-weightBackend direct|indexed] [-weights SPEC]
//	        [-sparse auto|on|off] [-tauStep T] [-tauFinal T]
//	        [-metricsAddr HOST:PORT] [-trace FILE]
//
// -metricsAddr serves the live telemetry registry (/metrics in
// Prometheus text format, /debug/vars, /debug/pprof) for the duration
// of the run; -trace records a Chrome-trace timeline of run 0. Both
// are observation-only: every output stays byte-identical with them
// on, off, or scraped mid-run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/dsn2020-algorand/incentives/internal/cliutil"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "algosim:", err)
		}
		os.Exit(1)
	}
}

// simRun is one simulation's per-round outcome fractions plus the
// headline counters of its final state.
type simRun struct {
	final, tentative, none []float64
	decidedRounds          int
	chainHeight            int
	netStats               network.Stats
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("algosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes       = fs.Int("nodes", 100, "network size")
		rounds      = fs.Int("rounds", 30, "rounds to simulate")
		runs        = fs.Int("runs", 1, "independent simulations to average")
		workers     = cliutil.Workers(fs)
		defect      = fs.Float64("defect", 0.10, "fraction of honest-but-selfish nodes that defect")
		malicious   = fs.Float64("malicious", 0, "fraction of malicious nodes")
		faulty      = fs.Float64("faulty", 0, "fraction of faulty (offline) nodes")
		fanout      = fs.Int("fanout", 5, "gossip fan-out")
		loss        = fs.Float64("loss", protocol.DefaultLossProb, "per-hop gossip loss probability")
		seed        = cliutil.Seed(fs, 1, "random seed")
		asCSV       = fs.Bool("csv", false, "emit CSV instead of a text table")
		weights     = cliutil.Weights(fs)
		sparseFlags = cliutil.Sparse(fs)
		obsFlags    = cliutil.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(stderr); cerr != nil && err == nil {
			err = cerr
		}
	}()
	backend, profile, err := weights.Resolve()
	if err != nil {
		return err
	}
	sparse, params, err := sparseFlags.Resolve()
	if err != nil {
		return err
	}
	if mix := (experiments.BehaviorMix{Selfish: *defect, Malicious: *malicious, Faulty: *faulty}); !mix.Valid() {
		return fmt.Errorf("behaviour fractions -defect %v -malicious %v -faulty %v must each lie in [0, 1] and sum to at most 1",
			*defect, *malicious, *faulty)
	}
	if *runs < 1 {
		return fmt.Errorf("need at least one run, got %d", *runs)
	}

	results, err := runpool.Sweep(*runs, *workers, func(run int) (simRun, error) {
		// Run 0 uses the -seed value itself, so -runs 1 reproduces the
		// historical single-run output exactly.
		runSeed := *seed + int64(run)*7919
		rng := sim.NewRNG(runSeed, "algosim")
		pop, err := stake.SamplePopulation(stake.UniformInt{A: 1, B: 50}, *nodes, rng)
		if err != nil {
			return simRun{}, err
		}
		behaviors := make([]protocol.Behavior, *nodes)
		for i := range behaviors {
			behaviors[i] = protocol.Honest
		}
		perm := rng.Perm(*nodes)
		idx := 0
		assign := func(frac float64, b protocol.Behavior) {
			for n := 0; n < int(frac*float64(*nodes)) && idx < *nodes; n++ {
				behaviors[perm[idx]] = b
				idx++
			}
		}
		assign(*defect, protocol.Selfish)
		assign(*malicious, protocol.Malicious)
		assign(*faulty, protocol.Faulty)

		pcfg := protocol.Config{
			Params:        params,
			Stakes:        pop.Stakes,
			Behaviors:     behaviors,
			Fanout:        *fanout,
			LossProb:      *loss,
			Seed:          runSeed,
			Sparse:        sparse,
			WeightBackend: backend,
		}
		if run == 0 {
			pcfg.Trace = sess.Trace() // single-writer: run 0 only
		}
		if profile != nil {
			pcfg.Weights = profile(*nodes, runSeed)
		}
		runner, err := protocol.NewRunner(pcfg)
		if err != nil {
			return simRun{}, err
		}

		reports := runner.RunRounds(*rounds)
		if err := runner.Err(); err != nil {
			return simRun{}, err
		}
		out := simRun{
			final:       make([]float64, len(reports)),
			tentative:   make([]float64, len(reports)),
			none:        make([]float64, len(reports)),
			chainHeight: runner.Canonical().Len(),
			netStats:    runner.Network().Stats(),
		}
		for i, rep := range reports {
			out.final[i] = rep.FinalFrac()
			out.tentative[i] = rep.TentativeFrac()
			out.none[i] = rep.NoneFrac()
			if rep.Decided {
				out.decidedRounds++
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	pick := func(field func(simRun) []float64) [][]float64 {
		rows := make([][]float64, len(results))
		for i, r := range results {
			rows[i] = field(r)
		}
		return rows
	}
	finalCol, err := runpool.MeanColumns(pick(func(r simRun) []float64 { return r.final }))
	if err != nil {
		return err
	}
	tentCol, err := runpool.MeanColumns(pick(func(r simRun) []float64 { return r.tentative }))
	if err != nil {
		return err
	}
	noneCol, err := runpool.MeanColumns(pick(func(r simRun) []float64 { return r.none }))
	if err != nil {
		return err
	}
	roundCol := make([]float64, *rounds)
	for i := range roundCol {
		roundCol[i] = float64(i + 1)
	}
	table := stats.NewTable(
		stats.Series{Name: "round", Values: roundCol},
		stats.Series{Name: "final", Values: finalCol},
		stats.Series{Name: "tentative", Values: tentCol},
		stats.Series{Name: "none", Values: noneCol},
	)
	if *asCSV {
		if err := table.WriteCSV(stdout); err != nil {
			return err
		}
	} else {
		if err := table.WriteText(stdout); err != nil {
			return err
		}
	}

	meanFinal, _ := stats.Mean(finalCol)
	meanDecided := runpool.MeanOf(results, func(r simRun) float64 { return float64(r.decidedRounds) })
	meanHeight := runpool.MeanOf(results, func(r simRun) float64 { return float64(r.chainHeight) })
	if *runs == 1 {
		fmt.Fprintf(stderr,
			"\n%d/%d rounds decided; mean final fraction %.1f%%; chain height %d; gossip: %+v\n",
			results[0].decidedRounds, *rounds, 100*meanFinal, results[0].chainHeight, results[0].netStats)
	} else {
		fmt.Fprintf(stderr,
			"\n%d runs: mean %.1f/%d rounds decided; mean final fraction %.1f%%; mean chain height %.1f\n",
			*runs, meanDecided, *rounds, 100*meanFinal, meanHeight)
	}
	return nil
}
