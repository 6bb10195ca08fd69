// Command simd runs the long-lived simulation daemon and its client.
//
// Usage:
//
//	simd serve  [-listen HOST:PORT] [-data DIR] [-maxWorkers N] [-cacheCells N] [-drainTimeout D]
//	simd submit [-addr URL] [-kind grid|scenario] [job flags] [-out DIR | -stream | -wait] [name ...]
//	simd watch  [-addr URL] -job ID [-quiet]
//
// serve starts the daemon: an HTTP service accepting experiment jobs
// (POST /api/v1/jobs) and streaming each job's results as the NDJSON
// wire encoding of the experiment sink events (GET
// /api/v1/jobs/<id>/stream; add ?sse=1 or Accept: text/event-stream
// for SSE framing). The obs introspection routes — /metrics,
// /debug/vars, /debug/pprof — are mounted on the same listener, with
// the daemon's own simd_* metric families alongside the simulation
// counters. Jobs share a fixed worker-slot budget (-maxWorkers) and
// queue FIFO; a grid whose cells already ran — in any earlier job
// sharing their configuration — streams them from the completed-cell
// cache instead of re-simulating, byte-identically. A request matching
// a queued or running job's configuration gets that job back. A scenario sweep
// job runs as its one-scenario grid (run i is the cell at seed
// seed + 7919·i), so everything said of grids holds for it. With -data
// set, jobs checkpoint every completed cell; on SIGINT/SIGTERM the
// daemon drains (running jobs stop at the next cell boundary) and a
// restarted daemon resumes interrupted jobs automatically, producing
// the remaining cells byte-identical to an uninterrupted run.
//
// submit builds a job from the familiar CLI flags (grid jobs take
// -fullNodes/-fullRounds/-fullSeeds plus positional scenario names,
// exactly like `scenario -full`; scenario jobs take
// -scenario/-nodes/-rounds/-runs/-seed) and posts it to the daemon.
// With -out DIR it follows the stream and replays it through the CSV
// sink stack, writing the exact files `scenario -full` would have
// written — byte for byte, whatever worker budget or cache state served
// the job. With -stream it copies the raw NDJSON to stdout; with -wait
// it just waits for completion. Like the CLI, submit exits non-zero if
// the job's audits observe any safety violation.
//
// watch follows a running job, printing the per-cell audit lines the
// batch CLI prints, then the job's final state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/cliutil"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/simd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "simd:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: simd serve|submit|watch [flags]")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:], stdout, stderr)
	case "submit":
		return runSubmit(args[1:], stdout, stderr)
	case "watch":
		return runWatch(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, submit or watch)", args[0])
	}
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "HOST:PORT to serve the job API and /metrics on")
		dataDir      = fs.String("data", "simd-data", "directory for job specs and grid checkpoints (empty disables persistence and resume)")
		maxWorkers   = fs.Int("maxWorkers", 0, "worker-slot budget shared by all jobs (0 = GOMAXPROCS)")
		cacheCells   = fs.Int("cacheCells", 0, "completed-cell cache capacity in entries (0 = 4096, negative disables)")
		drainTimeout = fs.Duration("drainTimeout", time.Minute, "how long shutdown waits for running jobs to reach a cell boundary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	daemon, err := simd.New(simd.Config{
		DataDir:    *dataDir,
		MaxWorkers: *maxWorkers,
		CacheCells: *cacheCells,
		Logf:       func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) },
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simd: serving on http://%s (budget %d workers)\n", lis.Addr(), daemon.Budget().Total())
	srv := &http.Server{Handler: daemon, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "simd: draining — running grids stop at the next cell boundary; checkpoints resume them on restart")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := daemon.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "simd: drain incomplete: %v\n", err)
	}
	return srv.Close()
}

func runSubmit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		client = cliutil.Client(fs)
		kind   = fs.String("kind", "grid", "job kind: grid (scenario×seed grid) or scenario (per-scenario sweep)")

		// Grid axes, spelled like `scenario -full`.
		fullNodes  = fs.Int("fullNodes", 0, "grid: network size per cell (0 = daemon default 500)")
		fullRounds = fs.Int("fullRounds", 0, "grid: rounds per cell (0 = daemon default 12)")
		fullSeeds  = fs.Int("fullSeeds", 0, "grid: seed axis 1..N (0 = daemon default 3)")

		// Sweep axes, spelled like plain `scenario`.
		scenarioName = fs.String("scenario", "", "sweep: scenario name (empty = eclipse_equivocation)")
		nodes        = fs.Int("nodes", 0, "sweep: network size per run (0 = daemon default 100)")
		rounds       = fs.Int("rounds", 0, "sweep: rounds per run (0 = daemon default 12)")
		runs         = fs.Int("runs", 0, "sweep: independent runs (0 = daemon default 4)")
		seed         = cliutil.Seed(fs, 0, "sweep: base seed (0 = daemon default 1)")

		workers     = cliutil.Workers(fs)
		weights     = cliutil.Weights(fs)
		sparseFlags = cliutil.Sparse(fs)

		outDir    = fs.String("out", "", "grid: follow the stream and write the scenario -full CSV files here")
		streamOut = fs.Bool("stream", false, "follow the stream and copy the raw NDJSON to stdout")
		wait      = fs.Bool("wait", false, "wait for the job to settle before exiting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	common := simd.CommonSpec{
		Workers:       *workers,
		WeightBackend: weights.Backend(),
		Weights:       weights.Spec(),
		Sparse:        sparseFlags.Mode(),
		TauStep:       sparseFlags.TauStepValue(),
		TauFinal:      sparseFlags.TauFinalValue(),
	}
	var req simd.JobRequest
	var gridSpec simd.GridJobSpec
	switch *kind {
	case "grid":
		gridSpec = simd.GridJobSpec{
			CommonSpec: common,
			Scenarios:  fs.Args(),
			Seeds:      *fullSeeds,
			Nodes:      *fullNodes,
			Rounds:     *fullRounds,
		}
		req = simd.JobRequest{Kind: simd.KindGrid, Grid: &gridSpec}
	case "scenario":
		if err := cliutil.NoArgs(fs); err != nil {
			return err
		}
		if *outDir != "" {
			return errors.New("-out reconstructs grid CSVs; use -kind grid (or -stream for raw events)")
		}
		req = simd.JobRequest{Kind: simd.KindScenario, Scenario: &simd.ScenarioJobSpec{
			CommonSpec: common,
			Scenario:   *scenarioName,
			Nodes:      *nodes,
			Rounds:     *rounds,
			Runs:       *runs,
			Seed:       *seed,
		}}
	default:
		return fmt.Errorf("unknown -kind %q (want grid or scenario)", *kind)
	}

	c := &simd.Client{Base: client.BaseURL()}
	st, err := c.Submit(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "submitted %s (%s, %d cells)\n", st.ID, st.Kind, st.Cells)

	follow := *outDir != "" || *streamOut || *wait
	if !follow {
		fmt.Fprintln(stdout, st.ID)
		return nil
	}
	stream, err := c.Stream(st.ID)
	if err != nil {
		return err
	}
	defer stream.Close()
	violations := 0
	switch {
	case *outDir != "":
		if violations, err = simd.WriteGridOutputs(stream, gridSpec, *outDir, stdout); err != nil {
			return err
		}
	case *streamOut:
		if _, err := io.Copy(stdout, stream); err != nil {
			return err
		}
	default:
		if _, err := io.Copy(io.Discard, stream); err != nil {
			return err
		}
	}
	return settle(c, st.ID, violations, stderr)
}

// settle fetches the job's final state and maps it to the CLI verdict.
func settle(c *simd.Client, id string, violations int, stderr io.Writer) error {
	final, err := c.Status(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s %s (%d/%d cells, %d cached, %d restored)\n",
		final.ID, final.State, final.CellsDone, final.Cells, final.CachedCells, final.RestoredCells)
	if final.State != simd.JobDone {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	if violations > 0 {
		return fmt.Errorf("safety audit failed: %d conflicting-finalisation round(s) across the grid", violations)
	}
	return nil
}

func runWatch(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		client = cliutil.Client(fs)
		jobID  = fs.String("job", "", "job ID to follow")
		quiet  = fs.Bool("quiet", false, "suppress per-cell audit lines; print only the final state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}
	if *jobID == "" {
		jobs, err := (&simd.Client{Base: client.BaseURL()}).List()
		if err != nil {
			return err
		}
		for _, st := range jobs {
			fmt.Fprintf(stdout, "%-8s %-9s %-12s %d/%d cells\n", st.ID, st.Kind, st.State, st.CellsDone, st.Cells)
		}
		return nil
	}
	c := &simd.Client{Base: client.BaseURL()}
	stream, err := c.Stream(*jobID)
	if err != nil {
		return err
	}
	defer stream.Close()
	var sink experiments.Sink = &experiments.GridTextSink{W: stdout}
	if *quiet {
		sink = &experiments.GridTextSink{W: io.Discard}
	}
	if err := experiments.ReplayWire(stream, sink); err != nil {
		// A drained job's stream ends mid-grid; report the state instead.
		if !strings.Contains(err.Error(), "stream ended inside") {
			return err
		}
	}
	return settle(c, *jobID, 0, stderr)
}
