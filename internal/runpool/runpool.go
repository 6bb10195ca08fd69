// Package runpool fans independent simulation runs out across a fixed
// worker count while keeping every result bit-for-bit identical to a
// serial execution. The contract every experiment driver relies on:
//
//   - Each run derives all of its randomness from its own run index via
//     the sim.NewRNG(seed, label) labelled-stream scheme, so runs never
//     share mutable state.
//   - Results are collected into run-indexed slots and aggregated in
//     run-index order, never completion order, so the worker count and
//     goroutine scheduling cannot change any output.
//
// The zero worker count means "use GOMAXPROCS"; 1 degrades to a plain
// serial loop with no goroutines at all.
package runpool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// Resolve maps a configured worker count to the effective one: positive
// values pass through, anything else means GOMAXPROCS.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// poolHook wraps fn with one worker's run-pool telemetry (runs
// started/completed, claimed-queue depth, per-worker busy wall time);
// it returns fn unchanged when telemetry is disabled, so the disabled
// path adds nothing to the per-run call. Runs are claimed in ascending
// index order, so runs-1-run is the unclaimed count at claim time.
func poolHook[T, S any](fn func(run int, state S) (T, error), m *obs.PoolMetrics, worker, runs int) func(run int, state S) (T, error) {
	if m == nil {
		return fn
	}
	busy := m.WorkerBusy(worker)
	return func(run int, state S) (T, error) {
		m.RunsStarted.Add(1)
		m.QueueDepth.Set(int64(runs - 1 - run))
		t0 := time.Now()
		r, err := fn(run, state)
		busy.Add(uint64(time.Since(t0)))
		m.RunsCompleted.Add(1)
		return r, err
	}
}

// Sweep executes fn for every run index in [0, runs) across the given
// worker count and returns the results in run-index order. All runs are
// attempted even when some fail, and the error reported is always the
// lowest-indexed one, so failures are as deterministic as successes.
func Sweep[T any](runs, workers int, fn func(run int) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("runpool: nil run function")
	}
	return SweepWithState(runs, workers, nil,
		func(run int, _ struct{}) (T, error) { return fn(run) })
}

// SweepWithState is Sweep with a per-worker state hook: newState is
// invoked once per worker (with the worker's index) and its value is
// threaded into every fn call that worker executes. Experiment drivers
// use it to hand each worker a reusable arena — memory and memoisation
// pools that amortise per-run setup — which they take from a
// process-wide pool and put back once the sweep returns, so the state
// may carry runs of earlier and later sweeps too.
//
// The determinism contract is unchanged and puts one obligation on the
// state: runs are distributed to workers dynamically, so the state must
// be semantically transparent — recycled buffers fully overwritten,
// caches pure — or results would depend on which worker ran which run,
// or on what ran before the sweep. Each state has one owner at a time:
// its worker, until SweepWithState returns after every worker has
// exited. A nil newState supplies the zero value.
func SweepWithState[T, S any](runs, workers int, newState func(worker int) S, fn func(run int, state S) (T, error)) ([]T, error) {
	if runs < 0 {
		return nil, fmt.Errorf("runpool: negative run count %d", runs)
	}
	if fn == nil {
		return nil, fmt.Errorf("runpool: nil run function")
	}
	if newState == nil {
		newState = func(int) S { var zero S; return zero }
	}
	results := make([]T, runs)
	errs := make([]error, runs)

	workers = Resolve(workers)
	if workers > runs {
		workers = runs
	}
	m := obs.DefaultPool()
	if workers <= 1 {
		state := newState(0)
		work := poolHook(fn, m, 0, runs)
		for run := 0; run < runs; run++ {
			results[run], errs[run] = work(run, state)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				state := newState(w)
				work := poolHook(fn, m, w, runs)
				for {
					run := int(next.Add(1)) - 1
					if run >= runs {
						return
					}
					results[run], errs[run] = work(run, state)
				}
			}()
		}
		wg.Wait()
	}

	for run, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runpool: run %d: %w", run, err)
		}
	}
	return results, nil
}

// Accumulate folds per-run results in run-index order. It exists to make
// the deterministic-aggregation contract explicit at call sites: feed it
// a Sweep result and the fold sees runs 0, 1, 2, ... regardless of the
// order the pool finished them in.
func Accumulate[T, A any](results []T, acc A, fold func(acc A, r T) A) A {
	for _, r := range results {
		acc = fold(acc, r)
	}
	return acc
}

// MeanColumns averages rows element-wise: rows[run][i] in, mean over runs
// per position i out. All rows must share the first row's length; an
// empty input yields nil.
func MeanColumns(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	width := len(rows[0])
	out := make([]float64, width)
	for run, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("runpool: row %d has %d columns, want %d", run, len(row), width)
		}
		for i, v := range row {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out, nil
}

// TrimmedMeanColumns reduces rows[run][i] to a per-position trimmed mean
// over runs, the paper's aggregation for its 100-instance averages.
func TrimmedMeanColumns(rows [][]float64, trim float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	width := len(rows[0])
	for run, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("runpool: row %d has %d columns, want %d", run, len(row), width)
		}
	}
	out := make([]float64, width)
	column := make([]float64, len(rows))
	for i := 0; i < width; i++ {
		for run, row := range rows {
			column[run] = row[i]
		}
		m, err := stats.TrimmedMean(column, trim)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// MeanOf averages one float64 per run, a common Sweep reduction.
func MeanOf[T any](results []T, value func(T) float64) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		sum += value(r)
	}
	return sum / float64(len(results))
}
