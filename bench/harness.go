package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runAll runs every workload in a fixed order, each in its own child
// process, so one workload's heap and the daemon's process-global
// telemetry switch cannot disturb another. A child that crashes, times
// out, exits non-zero or leaves out a metric counts as a failed
// operation and is reported as such, never as a number.
func runAll(opt options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		res, err := runChild(exe, w, opt, deadline(w, opt), stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			res.Correct = false
			res.Attempted = max(res.Attempted, 1)
			res.Failed = max(res.Failed, 1)
		}
		if !res.Correct {
			code = 1
		}
		printResult(stdout, w.name, res)
	}
	return code
}

// deadline is three times what a child is expected to take: the
// measured time plus one cycle of overshoot plus set-up, doubled for a
// traced run, which repeats its cycles and re-drives some runs.
func deadline(w workload, opt options) time.Duration {
	expect := time.Duration(opt.seconds)*time.Second + w.cycle + 10*time.Second
	if opt.trace {
		expect = 2*expect + w.cycle
	}
	return 3 * expect
}

// runChild runs one workload in a child process killed after limit.
func runChild(exe string, w workload, opt options, limit time.Duration, stderr io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-trace", trace, "-work", opt.work)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.WaitDelay = time.Second
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return result{}, fmt.Errorf("timed out after %v", limit)
	}
	res, parseErr := parseResult(out.Bytes())
	if parseErr != nil {
		return result{}, errors.Join(runErr, parseErr)
	}
	want := endToEndUnits
	if opt.trace {
		want = layerUnits
	}
	var missing []string
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		return res, fmt.Errorf("missing metrics %s", strings.Join(missing, ", "))
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// Set-up is timed in batches of setupBatch child processes: one batch
// before the measured pass, another between operations whenever
// setupEvery has passed since the last, and a last one after the pass,
// with more until at least minSetups children have run.
const (
	setupBatch = 3
	setupEvery = 2 * time.Second
	minSetups  = 9
)

// childEnv marks a process the benchmark started as the bench command
// itself; the tests' binary reads it to act as one.
const childEnv = "BENCH_RUN_AS_MAIN"

// setupTimer times the workload's set-up: this binary started again in
// set-up mode, timed from exec until it reports ready — the config and a
// population built, one protocol.NewRunner at the workload's size, and
// the sink stack or server constructed. Spreading the batches over the
// pass makes the median describe the whole run, not one moment of it.
// A nil timer times nothing.
type setupTimer struct {
	exe string
	w   workload
	sz  size
	opt options
	log io.Writer

	last time.Time
	// ready and newRunner are each child's time to ready and the
	// NewRunner time it reported, in seconds.
	ready, newRunner []float64
}

func newSetupTimer(w workload, sz size, opt options, log io.Writer) (*setupTimer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &setupTimer{exe: exe, w: w, sz: sz, opt: opt, log: log}, nil
}

func (t *setupTimer) batch() error {
	for i := 0; i < setupBatch; i++ {
		r, nr, err := setupChild(t.exe, t.w, t.sz, t.opt, t.log)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		t.ready = append(t.ready, r.Seconds())
		t.newRunner = append(t.newRunner, nr.Seconds())
	}
	t.last = time.Now()
	return nil
}

// between runs a batch if setupEvery has passed since the last one.
func (t *setupTimer) between() error {
	if t == nil || time.Since(t.last) < setupEvery {
		return nil
	}
	return t.batch()
}

// finish runs the last batch and any more needed to reach minSetups.
func (t *setupTimer) finish() error {
	for first := true; first || len(t.ready) < minSetups; first = false {
		if err := t.batch(); err != nil {
			return err
		}
	}
	return nil
}

func setupChild(exe string, w workload, sz size, opt options, log io.Writer) (ready, newRunner time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	args := []string{"-setup-child", "-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10), "-work", opt.work}
	if sz == tinySize {
		args = append(args, "-tiny")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	ready = time.Since(start)
	_, _ = io.Copy(io.Discard, out)
	if err := errors.Join(cmd.Wait(), readErr); err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	var ns int64
	if _, err := fmt.Sscanf(line, "ready %d\n", &ns); err != nil {
		return 0, 0, fmt.Errorf("set-up child printed %q: %w", line, err)
	}
	return ready, time.Duration(ns), nil
}

// runSetupChild is set-up mode: it builds the workload's set-up, prints
// "ready" and NewRunner's time in nanoseconds, then releases it all.
func runSetupChild(w workload, sz size, opt options, stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp(opt.work, "setup-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	nr, release, err := w.make(sz).setup(&env{seed: opt.seed, dir: dir})
	if err != nil {
		fmt.Fprintln(stderr, "bench: setup:", err)
		return 1
	}
	fmt.Fprintf(stdout, "ready %d\n", nr.Nanoseconds())
	if err := release(); err != nil {
		fmt.Fprintln(stderr, "bench: setup release:", err)
		return 1
	}
	return 0
}

// parseResult reads the result object on the last non-empty line.
func parseResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// printResult prints a workload's metrics one per line, then its
// result object tagged with the workload name.
func printResult(w io.Writer, name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	blob, _ := json.Marshal(struct {
		Workload string `json:"workload"`
		result
	}{name, res})
	fmt.Fprintf(w, "%s\n", blob)
}
