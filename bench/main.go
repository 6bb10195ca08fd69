// Command bench is the repository's end-to-end benchmark. It drives the
// simulator only through public entry points — experiments.RunFig3,
// experiments.StreamScenarioGrid behind the `scenario -full` sink stack,
// and simd.Server over HTTP — on four workloads taken from the paper's
// evaluation, checks every output, and prints one JSON result line:
//
//	bash bench/run.sh --workload fig3_dense_500 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced pass instead.
// Without --workload every workload runs in turn, each in its own child
// process, and the result lines are printed one per workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// workers is the simulation parallelism of every workload: the run
// pool's worker count, the daemon's slot budget and GOMAXPROCS.
const workers = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// work holds build outputs, scratch files and trace artefacts; the
	// benchmark reads and writes nothing outside it and the sources.
	work string
	// setupChild and tiny are the set-up mode the benchmark times its
	// set-up in (see setupTimer), and the tests' workload size.
	setupChild, tiny bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if opt.workload == "" {
		return runAll(opt, stdout, stderr)
	}
	runtime.GOMAXPROCS(workers)
	w, _ := lookup(opt.workload)
	sz := defaultSize
	if opt.tiny {
		sz = tinySize
	}
	if opt.setupChild {
		return runSetupChild(w, sz, opt, stdout, stderr)
	}
	res, err := runWorkload(w, sz, opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"); empty runs all, one child process each")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.IntVar(&opt.seconds, "seconds", 25, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs a traced pass and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&opt.work, "work", ".bench_build", "directory for scratch files and trace artefacts")
	fs.BoolVar(&opt.setupChild, "setup-child", false, "build the workload's set-up, print \"ready <NewRunner ns>\", release it and exit")
	fs.BoolVar(&opt.tiny, "tiny", false, "run the workload at the tests' tiny size")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if opt.setupChild && opt.workload == "" {
		return opt, errors.New("-setup-child needs -workload")
	}
	if opt.workload != "" {
		if _, ok := lookup(opt.workload); !ok {
			return opt, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if opt.seconds < 1 {
		return opt, errors.New("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. Attempted counts operations
// (one rate's sweep, a grid, a daemon job); Failed counts those that
// errored or failed an output check.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
