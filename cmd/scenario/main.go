// Command scenario sweeps adversary scenarios over the BA* simulator and
// reports per-round outcome fractions plus the safety/liveness audit.
//
// Usage:
//
//	scenario -list
//	scenario [-nodes N] [-rounds N] [-runs N] [-seed N] [-workers N] [-trim F] [-out DIR]
//	         [-weightBackend direct|indexed] [-weights SPEC]
//	         [-sparse auto|on|off] [-tauStep T] [-tauFinal T]
//	         [-metricsAddr HOST:PORT] [-trace FILE] [name ...]
//	scenario -all
//	scenario -full [-fullNodes N] [-fullRounds N] [-fullSeeds N] [name ...]
//
// With no names and no -all, the bundled eclipse_equivocation scenario
// runs. Each scenario writes two CSVs to -out: scenario_<name>.csv with
// the per-round outcome fractions and scenario_<name>_audit.csv with the
// merged audit counters. Every sweep goes through the deterministic run
// pool: any -workers value yields bit-for-bit identical output.
//
// -weightBackend selects the ledger-backed weight oracle each run's
// sortition reads ("direct" is bit-identical to reading the ledger;
// "indexed" maintains an incremental stake index). -weights replaces
// ledger weights entirely with a synthetic per-run profile, e.g.
// "zipf:1.3:40;churn@6:0.2:0.5" — Zipf exponent 1.3, mean stake 40,
// and at round 6 a random 20% of nodes rescaled to half weight. Both
// apply to -full grids too; see internal/weight.
//
// -metricsAddr serves the live telemetry registry (/metrics in
// Prometheus text format, /debug/vars, /debug/pprof) while the sweep
// or grid runs; -trace records a Chrome-trace timeline of the first
// simulated run (first grid cell under -full). Both are
// observation-only: every CSV and summary stays byte-identical with
// them on, off, or scraped mid-run.
//
// -sparse selects the protocol round path ("auto" engages the
// sparse-committee sampler for populations of 4096+ nodes when the
// committee taus are absolute; "on" forces it, "off" forces the dense
// per-node sweep). -tauStep/-tauFinal override the committee sizes —
// values > 1 are absolute seat counts, which sparse runs require. All
// three apply to -full grids too, so a grid cell can run at 5000+ nodes.
//
// -full switches to the paper-scale robustness grid: every named (or,
// by default, every registered) scenario crossed with -fullSeeds seeds
// at -fullNodes nodes, one independent simulation per cell. Each cell
// writes full_<name>_s<seed>.csv (per-round outcome fractions) and
// full_<name>_s<seed>_audit.csv; full_grid_summary.csv collects one row
// per cell and full_grid_stream_summary.csv the memory-bounded
// per-column statistics. The grid streams every cell through the
// experiments.Sink API in ascending cell order, so memory stays
// O(in-flight cells) rather than O(grid), and appends each completed
// cell to a checkpoint (full_grid_checkpoint_<i>of<n>.jsonl) as it
// lands. The process exits non-zero if any cell's audit observes a
// safety violation.
//
// Grid runs are interruptible and partitionable:
//
//	scenario -full -resume             # continue an interrupted grid
//	scenario -full -shard 1/3          # run only cells with index ≡ 1 (mod 3)
//	scenario -full -mergeShards        # merge completed shard checkpoints
//
// -resume reloads the checkpoint (dropping a torn final line from a
// killed process) and re-simulates only the missing cells; the merged
// outputs are byte-identical to an uninterrupted run's. -shard i/n
// deterministically assigns every cell to exactly one of n cooperating
// processes sharing -out; each writes its own checkpoint and a partial
// summary (full_grid_summary_<i>of<n>.csv). Once every shard finishes,
// -mergeShards validates the checkpoint set covers each cell exactly
// once and rebuilds full_grid_summary.csv and
// full_grid_stream_summary.csv, byte-identical to an unsharded run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/cliutil"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/stats"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "scenario:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list registered scenarios and exit")
		all         = fs.Bool("all", false, "run every registered scenario")
		nodes       = fs.Int("nodes", 100, "network size per run")
		rounds      = fs.Int("rounds", 12, "rounds per run")
		runs        = fs.Int("runs", 4, "independent runs per scenario")
		seed        = cliutil.Seed(fs, 1, "base seed; run i derives its own")
		workers     = cliutil.Workers(fs)
		trim        = fs.Float64("trim", 0.20, "trimmed-mean fraction for per-round aggregation")
		outDir      = fs.String("out", "results", "output directory for CSV files")
		full        = fs.Bool("full", false, "run the paper-scale scenario×seed grid instead of per-scenario sweeps")
		fullNodes   = fs.Int("fullNodes", 500, "-full: network size per grid cell")
		fullRounds  = fs.Int("fullRounds", 12, "-full: rounds per grid cell")
		fullSeeds   = fs.Int("fullSeeds", 3, "-full: number of seeds (1..N) forming the grid's second axis")
		shardSpec   = fs.String("shard", "", "-full: run only this shard of the grid, as i/n (cells with index ≡ i mod n)")
		resume      = fs.Bool("resume", false, "-full: resume from this shard's checkpoint, re-simulating only unrecorded cells")
		mergeShards = fs.Bool("mergeShards", false, "-full: merge completed shard checkpoints in -out into the grid summaries instead of simulating")
		weights     = cliutil.Weights(fs)
		sparseFlags = cliutil.Sparse(fs)
		obsFlags    = cliutil.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	backend, profile, err := weights.Resolve()
	if err != nil {
		return err
	}
	sparse, params, err := sparseFlags.Resolve()
	if err != nil {
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

	if *list {
		for _, s := range adversary.Builtin() {
			fmt.Fprintf(stdout, "%-22s %s\n", s.Name, s.Description)
		}
		return nil
	}

	names := fs.Args()
	if !*full {
		// The grid-execution flags are meaningless for per-scenario
		// sweeps; silently ignoring them would mislead worse than failing.
		for name, set := range map[string]bool{
			"shard": *shardSpec != "", "resume": *resume, "mergeShards": *mergeShards,
		} {
			if set {
				return fmt.Errorf("-%s only applies to -full grids", name)
			}
		}
		if *all {
			names = adversary.Names()
		} else if len(names) == 0 {
			names = []string{adversary.EclipseEquivocation}
		}
		return runSweeps(names, *nodes, *rounds, *runs, *seed, *workers, *trim, *outDir, backend, profile, sparse, params, sess.Trace(), stdout)
	}

	// The grid has its own axes (-fullNodes/-fullRounds/-fullSeeds);
	// silently ignoring the per-sweep flags would hand the user a
	// 500-node grid they did not configure, so reject the mix loudly.
	conflicting := map[string]bool{
		"nodes": true, "rounds": true, "runs": true,
		"seed": true, "trim": true, "all": true,
	}
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		if conflicting[f.Name] && conflict == nil {
			conflict = fmt.Errorf("-%s does not apply to -full (use -fullNodes/-fullRounds/-fullSeeds; the grid always runs seeds 1..N)", f.Name)
		}
	})
	if conflict != nil {
		return conflict
	}
	shard, err := experiments.ParseShard(*shardSpec)
	if err != nil {
		return err
	}
	if *mergeShards && (*shardSpec != "" || *resume) {
		return errors.New("-mergeShards runs alone: it only reads completed shard checkpoints")
	}
	if len(names) == 0 {
		names = adversary.Names()
	}
	g := gridRun{
		nodes: *fullNodes, rounds: *fullRounds, seeds: *fullSeeds,
		workers: *workers, outDir: *outDir,
		backend: backend, profile: profile, weightsSpec: weights.Spec(),
		sparse: sparse, params: params,
		shard: shard, resume: *resume,
		trace: sess.Trace(),
	}
	if *mergeShards {
		return g.mergeShards(names, stdout)
	}
	return g.run(names, stdout)
}

// gridRun bundles the -full execution knobs.
type gridRun struct {
	nodes, rounds, seeds int
	workers              int
	outDir               string
	backend              weight.Backend
	profile              experiments.WeightProfile
	weightsSpec          string
	sparse               protocol.SparseMode
	params               protocol.Params
	shard                experiments.ShardSpec
	resume               bool
	trace                *obs.Trace
}

// config builds the grid config the named scenarios define.
func (g gridRun) config(names []string) (experiments.ScenarioGridConfig, error) {
	cfg := experiments.FullScenarioGridConfig()
	if g.seeds < 1 {
		return cfg, fmt.Errorf("-fullSeeds must be >= 1, got %d", g.seeds)
	}
	cfg.Scenarios = names
	cfg.Nodes = g.nodes
	cfg.Rounds = g.rounds
	cfg.Workers = g.workers
	cfg.WeightBackend = g.backend
	cfg.WeightProfile = g.profile
	cfg.Sparse = g.sparse
	cfg.Params = g.params
	cfg.Trace = g.trace
	cfg.Seeds = make([]int64, g.seeds)
	for i := range cfg.Seeds {
		cfg.Seeds[i] = int64(i + 1)
	}
	return cfg, nil
}

// summaryName is this shard's grid-summary filename (the whole grid
// writes the canonical full_grid_summary.csv).
func (g gridRun) summaryName() string {
	if g.shard.Count > 1 {
		return fmt.Sprintf("full_grid_summary_%dof%d.csv", g.shard.Index, g.shard.Count)
	}
	return "full_grid_summary.csv"
}

// run executes this shard of the grid through the streaming sink
// stack: per-cell text lines and CSVs, the memory-bounded stream
// summary, and a durable checkpoint every other sink feeds ahead of.
func (g gridRun) run(names []string, stdout io.Writer) error {
	cfg, err := g.config(names)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(g.outDir, 0o755); err != nil {
		return err
	}
	fingerprint := experiments.GridFingerprint(cfg, g.weightsSpec)
	ckptPath := filepath.Join(g.outDir, experiments.GridCheckpointName(g.shard))

	var prior []experiments.GridCellRecord
	if g.resume {
		if prior, err = experiments.LoadGridCheckpoint(ckptPath, cfg, fingerprint, g.shard); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "==> full grid: %d scenarios x %d seeds at %d nodes, %d rounds/cell (shard %s, %d cells checkpointed)\n",
		len(cfg.Scenarios), g.seeds, g.nodes, g.rounds, g.shard, len(prior))

	// Rewriting the checkpoint heals any torn tail; the in-order fold
	// appends re-simulated cells behind the restored prefix, so the
	// finished file is byte-identical to an uninterrupted run's.
	ckpt, err := experiments.CreateGridCheckpoint(ckptPath, fingerprint, g.shard, prior)
	if err != nil {
		return err
	}
	defer ckpt.Close()
	restored := make(map[int]adversary.Report, len(prior))
	for _, rec := range prior {
		restored[rec.Index] = rec.Audit
	}
	csv := experiments.NewGridCSVSink(g.outDir, cfg, g.summaryName())
	csv.SetLog(stdout)
	summary := experiments.NewSummarySink(0)
	summary.Restore(prior)
	// Checkpoint last: a recorded cell implies every other sink consumed it.
	sink := experiments.MultiSink(&experiments.GridTextSink{W: stdout}, csv, summary, experiments.NewCheckpointSink(ckpt, 0))
	opt := experiments.StreamOptions{Shard: g.shard, Restored: restored}
	if err := experiments.StreamScenarioGrid(cfg, sink, opt); err != nil {
		return err
	}
	if err := ckpt.Close(); err != nil {
		return err
	}
	if err := csv.Close(); err != nil {
		return err
	}
	if g.shard.Count <= 1 {
		table, err := summary.Table()
		if err != nil {
			return err
		}
		if err := writeCSV(stdout, g.outDir, "full_grid_stream_summary.csv", table); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "grid shard %s: %d cells done, safety violations %d\n",
		g.shard, csv.CellsSeen(), csv.SafetyViolations())
	if v := csv.SafetyViolations(); v > 0 {
		return fmt.Errorf("safety audit failed: %d conflicting-finalisation round(s) across the grid", v)
	}
	return nil
}

// mergeShards rebuilds the whole-grid summaries from completed shard
// checkpoints, byte-identical to an unsharded run's.
func (g gridRun) mergeShards(names []string, stdout io.Writer) error {
	cfg, err := g.config(names)
	if err != nil {
		return err
	}
	fingerprint := experiments.GridFingerprint(cfg, g.weightsSpec)
	records, err := experiments.MergeGridCheckpoints(g.outDir, cfg, fingerprint)
	if err != nil {
		return err
	}
	if err := writeCSV(stdout, g.outDir, "full_grid_summary.csv", experiments.GridSummaryFromRecords(cfg, records)); err != nil {
		return err
	}
	summaries := make([]*experiments.CellSummary, 0, len(records))
	violations := 0
	for _, rec := range records {
		violations += rec.Audit.SafetyViolations
		if rec.Summary == nil {
			return fmt.Errorf("cell %d checkpoint record carries no stream summary", rec.Index)
		}
		summaries = append(summaries, rec.Summary)
	}
	table, err := experiments.StreamSummaryTable(summaries)
	if err != nil {
		return err
	}
	if err := writeCSV(stdout, g.outDir, "full_grid_stream_summary.csv", table); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merged %d cells from shard checkpoints, safety violations %d\n", len(records), violations)
	if violations > 0 {
		return fmt.Errorf("safety audit failed: %d conflicting-finalisation round(s) across the grid", violations)
	}
	return nil
}

func runSweeps(names []string, nodes, rounds, runs int, seed int64, workers int, trim float64, outDir string, backend weight.Backend, profile experiments.WeightProfile, sparse protocol.SparseMode, params protocol.Params, trace *obs.Trace, stdout io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	violations := 0
	for i, name := range names {
		cfg := experiments.DefaultScenarioConfig(name)
		cfg.Nodes = nodes
		cfg.Rounds = rounds
		cfg.Runs = runs
		cfg.Seed = seed
		cfg.Workers = workers
		cfg.TrimFrac = trim
		cfg.WeightBackend = backend
		cfg.WeightProfile = profile
		cfg.Sparse = sparse
		cfg.Params = params
		if i == 0 {
			cfg.Trace = trace // single-writer: first scenario's run 0 only
		}
		fmt.Fprintf(stdout, "==> %s\n", name)
		res, err := experiments.RunScenario(cfg)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		if err := res.WriteSummary(stdout); err != nil {
			return err
		}
		if err := writeCSV(stdout, outDir, "scenario_"+name+".csv", res.Table()); err != nil {
			return err
		}
		if err := writeCSV(stdout, outDir, "scenario_"+name+"_audit.csv", res.AuditTable()); err != nil {
			return err
		}
		violations += res.Audit.SafetyViolations
		fmt.Fprintln(stdout)
	}
	if violations > 0 {
		return fmt.Errorf("safety audit failed: %d conflicting-finalisation round(s) observed", violations)
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
