// Command benchgen regenerates every table and figure of the paper's
// evaluation section and writes them as CSV files plus a textual summary.
//
// Usage:
//
//	benchgen [-out DIR] [-full] [-workers N] [table3|fig3|fig5|fig6|fig7|equilibrium|all]
//	benchgen [-largeNodes N] [-largeRounds N] [-largeRuns N] fig3large
//	benchgen -promfile FILE [-requireFamilies a,b,c] promlint
//
// With -full, the paper-scale configurations are used (500k nodes, 100-200
// runs); the default configurations finish on a laptop in minutes.
// -workers caps the shared deterministic run pool (0 = GOMAXPROCS); every
// worker count yields bit-for-bit identical CSVs.
//
// The fig3large target scales the defection experiment far beyond the
// paper's 100 nodes via the sparse-committee round path (absolute
// committee taus, see internal/protocol): -largeNodes picks the
// population (default 500000), -largeRounds/-largeRuns trim the sweep for
// CI smokes (0 keeps the LargeFig3Config defaults). It writes
// fig3large_<nodes>.csv; the paper's fig3 target is untouched.
//
// The promlint target validates a captured /metrics scrape (-promfile)
// as well-formed Prometheus text exposition and checks the families
// named by -requireFamilies are present — the CI metrics-smoke job's
// scrape validator.
//
// -metricsAddr serves the live telemetry registry (/metrics,
// /debug/vars, /debug/pprof) while targets run; -trace records a
// Chrome-trace timeline of the first simulated run of the fig3 or
// fig3large target. Both are observation-only: every CSV stays
// byte-identical with them on or off.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/dsn2020-algorand/incentives/internal/analysis"
	"github.com/dsn2020-algorand/incentives/internal/cliutil"
	"github.com/dsn2020-algorand/incentives/internal/evolution"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchgen:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outDir      = fs.String("out", "results", "output directory for CSV files")
		full        = fs.Bool("full", false, "use paper-scale configurations")
		workers     = cliutil.Workers(fs)
		largeNodes  = fs.Int("largeNodes", 500_000, "fig3large: population size")
		largeRounds = fs.Int("largeRounds", 0, "fig3large: rounds per run (0 = LargeFig3Config default)")
		largeRuns   = fs.Int("largeRuns", 0, "fig3large: runs per defection rate (0 = LargeFig3Config default)")
		promFile    = fs.String("promfile", "", "promlint target: captured /metrics scrape to validate")
		promWant    = fs.String("requireFamilies", "", "promlint target: comma-separated metric families that must be present")
		obsFlags    = cliutil.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(stdout); cerr != nil && err == nil {
			err = cerr
		}
	}()

	targets := fs.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{
			"table3", "fig3", "fig5", "fig6", "fig7", "equilibrium",
			"evolution", "weaksync", "costs", "sensitivity", "mixed",
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, target := range targets {
		fmt.Fprintf(stdout, "==> %s\n", target)
		var err error
		switch target {
		case "table3":
			err = genTable3(stdout, *outDir)
		case "fig3":
			err = genFig3(stdout, *outDir, *full, *workers, sess.Trace())
		case "fig3large":
			err = genFig3Large(stdout, *outDir, *largeNodes, *largeRounds, *largeRuns, *workers, sess.Trace())
		case "fig5":
			err = genFig5(stdout, *outDir, *workers)
		case "fig6":
			err = genFig6(stdout, *outDir, *full, *workers)
		case "fig7":
			err = genFig7(stdout, *outDir, *full, *workers)
		case "equilibrium":
			err = genEquilibrium(stdout, *outDir, *workers)
		case "evolution":
			err = genEvolution(stdout, *outDir)
		case "weaksync":
			err = genWeakSync(stdout, *outDir, *workers)
		case "costs":
			err = genCosts(stdout, *outDir)
		case "sensitivity":
			err = genSensitivity(stdout, *outDir)
		case "mixed":
			err = genMixed(stdout, *outDir, *workers)
		case "promlint":
			err = runPromLint(*promFile, *promWant)
		default:
			err = fmt.Errorf("unknown target %q", target)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func writeCSV(stdout io.Writer, outDir, name string, table *stats.Table) error {
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := table.WriteCSV(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func genTable3(stdout io.Writer, outDir string) error {
	res, err := experiments.RunTable3()
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "table3.csv", res.Table())
}

func genFig3(stdout io.Writer, outDir string, full bool, workers int, trace *obs.Trace) error {
	cfg := experiments.DefaultFig3Config()
	if full {
		cfg = experiments.FullFig3Config()
	}
	cfg.Workers = workers
	cfg.Trace = trace
	res, err := experiments.RunFig3(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "fig3.csv", res.Table())
}

// genFig3Large is the beyond-paper-scale defection sweep: LargeFig3Config
// sets absolute committee taus, so populations of 4096+ nodes take the
// sparse-committee round path and per-round cost tracks the committee
// size rather than the population.
func genFig3Large(stdout io.Writer, outDir string, nodes, rounds, runs, workers int, trace *obs.Trace) error {
	cfg := experiments.LargeFig3Config(nodes)
	if rounds > 0 {
		cfg.Rounds = rounds
	}
	if runs > 0 {
		cfg.Runs = runs
	}
	cfg.Workers = workers
	cfg.Trace = trace
	fmt.Fprintf(stdout, "fig3 at %d nodes (%d rounds, %d runs/rate, tauStep %.0f, tauFinal %.0f)\n",
		cfg.Nodes, cfg.Rounds, cfg.Runs, cfg.Params.TauStep, cfg.Params.TauFinal)
	res, err := experiments.RunFig3(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, fmt.Sprintf("fig3large_%d.csv", cfg.Nodes), res.Table())
}

func genFig5(stdout io.Writer, outDir string, workers int) error {
	cfg := experiments.DefaultFig5Config()
	cfg.Workers = workers
	res, err := experiments.RunFig5(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "fig5.csv", res.Table())
}

func genFig6(stdout io.Writer, outDir string, full bool, workers int) error {
	cfg := experiments.DefaultFig6Config()
	if full {
		cfg = experiments.FullFig6Config()
	}
	cfg.Workers = workers
	res, err := experiments.RunFig6(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	for _, panel := range res.Panels {
		h, err := panel.Histogram(cfg.HistogramBins)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nB_i distribution for %s:\n%s", panel.Distribution, h.Render(50))
	}
	return writeCSV(stdout, outDir, "fig6.csv", res.Table())
}

func genFig7(stdout io.Writer, outDir string, full bool, workers int) error {
	cfg := experiments.DefaultFig7Config()
	if full {
		cfg = experiments.FullFig7Config()
	}
	cfg.Workers = workers
	res, err := experiments.RunFig7(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "fig7.csv", res.Table())
}

// genWeakSync reproduces the Fig. 3-(c) asynchrony spike and recovery.
func genWeakSync(stdout io.Writer, outDir string, workers int) error {
	cfg := experiments.DefaultWeakSyncConfig()
	cfg.Workers = workers
	res, err := experiments.RunWeakSync(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "weaksync.csv", res.Table())
}

// genCosts compares measured protocol expenditure against the Eq. 1-2
// cost model.
func genCosts(stdout io.Writer, outDir string) error {
	res, err := experiments.RunCosts(experiments.DefaultCostsConfig())
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "costs.csv", res.Table())
}

// genMixed sweeps selfish / malicious / faulty behaviour mixes.
func genMixed(stdout io.Writer, outDir string, workers int) error {
	cfg := experiments.DefaultMixedConfig()
	cfg.Workers = workers
	res, err := experiments.RunMixed(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	return writeCSV(stdout, outDir, "mixed.csv", res.Table())
}

// genSensitivity reports the elasticities of B* with respect to every
// Algorithm 1 input.
func genSensitivity(stdout io.Writer, outDir string) error {
	in := experiments.PaperFig5Inputs()
	sens, err := analysis.MechanismSensitivities(in, 0.01)
	if err != nil {
		return err
	}
	t := &stats.Table{}
	elasticities := make([]float64, len(sens))
	for i, s := range sens {
		fmt.Fprintf(stdout, "elasticity of B* wrt %-5s = %+.3f\n", s.Param, s.Elasticity)
		elasticities[i] = s.Elasticity
	}
	t.AddColumn("elasticity", elasticities)
	if top, ok := analysis.MostSensitive(sens); ok {
		fmt.Fprintf(stdout, "most sensitive input: %s (watch the %s cost gap)\n", top.Param, top.Param)
	}
	return writeCSV(stdout, outDir, "sensitivity.csv", t)
}

// genEvolution runs the extension experiment: repeated-round best-response
// dynamics under both reward schemes (see internal/evolution).
func genEvolution(stdout io.Writer, outDir string) error {
	t := &stats.Table{}
	for _, scheme := range []evolution.SchemeKind{evolution.SchemeFoundation, evolution.SchemeRoleBased} {
		res, err := evolution.Run(evolution.DefaultConfig(scheme))
		if err != nil {
			return err
		}
		pl, pm := res.PrefixStratCoop()
		fmt.Fprintf(stdout, "%-11s survival %3d rounds, block rate %.2f, producing-prefix dispositions: leaders %.3f committee %.3f\n",
			scheme, res.SurvivalRounds(), res.BlockRate(), pl, pm)
		rounds := make([]float64, len(res.Stats))
		stratM := make([]float64, len(res.Stats))
		stratK := make([]float64, len(res.Stats))
		produced := make([]float64, len(res.Stats))
		for i, s := range res.Stats {
			rounds[i] = float64(s.Round)
			stratM[i] = s.StratCommittee
			stratK[i] = s.StratOthers
			if s.BlockProduced {
				produced[i] = 1
			}
		}
		prefix := scheme.String() + "_"
		if len(t.Columns) == 0 {
			t.AddColumn("round", rounds)
		}
		t.AddColumn(prefix+"strat_committee", stratM)
		t.AddColumn(prefix+"strat_others", stratK)
		t.AddColumn(prefix+"produced", produced)
	}
	return writeCSV(stdout, outDir, "evolution.csv", t)
}

func genEquilibrium(stdout io.Writer, outDir string, workers int) error {
	cfg := experiments.DefaultEquilibriumConfig()
	cfg.Workers = workers
	res, err := experiments.RunEquilibrium(cfg)
	if err != nil {
		return err
	}
	if err := res.WriteSummary(stdout); err != nil {
		return err
	}
	t := &stats.Table{}
	n := float64(res.Config.Samples)
	t.AddColumn("theorem1", []float64{float64(res.Theorem1) / n})
	t.AddColumn("theorem2", []float64{float64(res.Theorem2) / n})
	t.AddColumn("lemma1", []float64{float64(res.Lemma1) / n})
	t.AddColumn("theorem3", []float64{float64(res.Theorem3) / n})
	t.AddColumn("tightness", []float64{float64(res.Tightness) / n})
	return writeCSV(stdout, outDir, "equilibrium.csv", t)
}
