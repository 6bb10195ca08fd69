// Command algosim runs the Algorand BA* protocol simulator: a gossip
// network of honest, selfish (defecting), malicious and faulty nodes
// attempting to finalise blocks round after round. It prints a per-round
// outcome table (the data behind the paper's Fig. 3) and a summary.
//
// With -runs > 1 it averages the per-round outcome fractions over
// independent simulations fanned out across the shared deterministic run
// pool; -workers caps the pool (0 = GOMAXPROCS) without changing any
// output. The flags fill an experiments.SimConfig, and RunSim simulates
// through the run path every experiment driver shares.
//
// -loss is the per-hop gossip loss probability, in [0, 1). The default
// is protocol.DefaultLossProb (0.20), calibrated to the paper's Fig. 3;
// -loss 0 runs lossless.
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
	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "algosim:", err)
		}
		os.Exit(1)
	}
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
		loss        = fs.Float64("loss", protocol.DefaultLossProb, "per-hop gossip loss probability in [0, 1); 0 = lossless")
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
	mix := experiments.BehaviorMix{Selfish: *defect, Malicious: *malicious, Faulty: *faulty}
	if !mix.Valid() {
		return fmt.Errorf("behaviour fractions -defect %v -malicious %v -faulty %v must each lie in [0, 1] and sum to at most 1",
			*defect, *malicious, *faulty)
	}
	if !(*loss >= 0 && *loss < 1) {
		return fmt.Errorf("-loss %v must lie in [0, 1)", *loss)
	}
	if *loss == 0 {
		*loss = -1 // protocol.Config reads a zero LossProb as DefaultLossProb
	}

	res, err := experiments.RunSim(experiments.SimConfig{
		Nodes: *nodes, Rounds: *rounds, Runs: *runs, Mix: mix,
		Fanout: *fanout, Loss: *loss, Seed: *seed, Params: params, Workers: *workers,
		WeightBackend: backend, WeightProfile: profile, Sparse: sparse, Trace: sess.Trace(),
	})
	if err != nil {
		return err
	}
	table := res.Table()
	write := table.WriteText
	if *asCSV {
		write = table.WriteCSV
	}
	if err := write(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stderr)
	return res.WriteSummary(stderr)
}
