package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// runSpec is one run of the experiment the paper's evaluation repeats:
// BA* for rounds rounds over a sampled stake population in which mix
// names the deviating nodes, optionally scripted by a scenario and
// degraded by a forced weak-synchrony window. Every driver that
// simulates the protocol (fig3, weaksync, mixed, costs, the scenario
// sweep, the grid and RunSim) builds one per run and hands it to
// simulate.
type runSpec struct {
	setup                 string // labelled setup RNG stream: population, then misbehaving nodes
	seed                  int64
	nodes, rounds, fanout int
	loss                  float64 // protocol.Config.LossProb: 0 is DefaultLossProb, negative lossless
	params                protocol.Params
	stakes                stake.Distribution
	mix                   BehaviorMix
	scenario              *adversary.Scenario // attached when non-nil; the audit is its report
	windowFrom, windowTo  uint64              // forced weak-synchrony window, none when windowTo is 0
	// observe, when set, sees the runner before round 1 (done 0, the
	// setup stream after its last draw) and after the last round (done =
	// rounds run, so zero rounds give done 0 twice).
	observe func(r *protocol.Runner, setup *rand.Rand, done int)
	// CommonConfig supplies the weight backend and profile, the round
	// path and the trace; the driver owns Workers and Sink.
	CommonConfig
}

// simulate runs one spec and returns its cell — the per-round
// final/tentative/none fractions, carved from one 3×rounds allocation,
// and the scenario's audit — plus the number of rounds some node
// decided. The cell's Seed is the spec's; its Scenario is left to the
// caller.
func simulate(spec runSpec, arena *protocol.Arena) (GridCell, int, error) {
	out := GridCell{Seed: spec.seed}
	if !spec.mix.Valid() {
		return out, 0, fmt.Errorf("experiments: invalid behaviour mix %+v", spec.mix)
	}
	rng := sim.NewRNG(spec.seed, spec.setup)
	// The population vector is arena scratch: NewRunner copies the stakes
	// into the genesis ledger and never retains the slice, so one buffer
	// serves every run a worker executes.
	pop, err := stake.SamplePopulationInto(spec.stakes, arena.StakeBuf(spec.nodes), rng)
	if err != nil {
		return out, 0, err
	}
	behaviors := arena.BehaviorBuf(spec.nodes)
	// The permutation is the setup stream's last draw, so an all-honest
	// run skips it without moving any other draw.
	if spec.mix != (BehaviorMix{}) {
		spec.mix.assign(behaviors, rng.Perm(spec.nodes))
	}
	pcfg := protocol.Config{
		Params:        spec.params,
		Stakes:        pop.Stakes,
		Behaviors:     behaviors,
		Fanout:        spec.fanout,
		LossProb:      spec.loss,
		Seed:          spec.seed,
		Arena:         arena,
		WeightBackend: spec.WeightBackend,
		Sparse:        spec.Sparse,
		Trace:         spec.Trace,
	}
	if spec.WeightProfile != nil {
		pcfg.Weights = spec.WeightProfile(spec.nodes, spec.seed)
	}
	runner, err := protocol.NewRunner(pcfg)
	if err != nil {
		return out, 0, err
	}
	var eng *adversary.Engine
	if spec.scenario != nil {
		if eng, err = adversary.Attach(runner, *spec.scenario); err != nil {
			return out, 0, err
		}
	}
	if spec.windowTo > 0 {
		runner.SetDegradedWindow(spec.windowFrom, spec.windowTo)
	}
	if spec.observe != nil {
		spec.observe(runner, rng, 0)
	}
	n := spec.rounds
	rows := make([]float64, 3*n)
	out.Final, out.Tentative, out.None = rows[:n:n], rows[n:2*n:2*n], rows[2*n:]
	decided := 0
	for round, report := range runner.RunRounds(n) {
		out.Final[round] = report.FinalFrac()
		out.Tentative[round] = report.TentativeFrac()
		out.None[round] = report.NoneFrac()
		if report.Decided {
			decided++
		}
	}
	if err := runner.Err(); err != nil {
		return out, 0, err
	}
	if spec.observe != nil {
		spec.observe(runner, rng, n)
	}
	if eng != nil {
		out.Audit = eng.Audit().Report()
	}
	return out, decided, nil
}

// arenaPool holds protocol arenas between sweeps, so an arena outlives
// the sweep that grew it: the next rate of a fig3 sweep, the next
// benchgen target and the next simd job start from its pools instead of
// building their own. protocol.NewArena runs only on a miss. Reuse
// changes no output bit (see the arena contract and the golden tests),
// and the GC drops arenas that stay unused for two cycles.
var arenaPool = sync.Pool{New: func() any { return protocol.NewArena() }}

// arenaLease is one sweep's share of arenaPool: take is the sweep's
// per-worker state hook and release puts every arena taken back.
type arenaLease struct {
	mu    sync.Mutex
	taken []*protocol.Arena
}

func (l *arenaLease) take(int) *protocol.Arena {
	a := arenaPool.Get().(*protocol.Arena)
	l.mu.Lock()
	l.taken = append(l.taken, a)
	l.mu.Unlock()
	return a
}

// release is called once the sweep has returned, error or not, but never
// from a defer: an arena that a panicking run left half-updated must not
// reach another sweep.
func (l *arenaLease) release() {
	for _, a := range l.taken {
		putArena(a)
	}
	l.taken = nil
}

// putArena returns an arena to arenaPool once its last run is done,
// first dropping what it still references of that run, so an idle arena
// keeps its buffers but not the run's Runner, ledger and trace.
func putArena(a *protocol.Arena) {
	a.Release()
	arenaPool.Put(a)
}

// sweepArenas is runpool.SweepWithState with one pooled arena per
// worker.
func sweepArenas[T any](runs, workers int, fn func(run int, arena *protocol.Arena) (T, error)) ([]T, error) {
	var lease arenaLease
	out, err := runpool.SweepWithState(runs, workers, lease.take, fn)
	lease.release()
	return out, err
}

// emitRunCells streams each run as one row-only cell (no audit event),
// run i as cell first+i named name.
func emitRunCells(sink Sink, first int, name string, runs []GridCell) error {
	if sink == nil {
		return nil
	}
	for i := range runs {
		r := &runs[i]
		cell := Cell{Index: first + i, Name: name, Seed: r.Seed}
		if err := sink.CellStart(cell, outcomeColumns); err != nil {
			return err
		}
		if err := emitSeriesRows(sink, cell, r.Final, r.Tentative, r.None); err != nil {
			return err
		}
		if err := sink.CellDone(cell); err != nil {
			return err
		}
	}
	return nil
}

// outcomeMeans reduces the runs' rows round by round with mean (a
// runpool column reduction) into the final, tentative and none series.
func outcomeMeans(runs []GridCell, mean func([][]float64) ([]float64, error)) (final, tentative, none []float64, err error) {
	var cols [3][][]float64
	for _, r := range runs {
		cols[0] = append(cols[0], r.Final)
		cols[1] = append(cols[1], r.Tentative)
		cols[2] = append(cols[2], r.None)
	}
	var out [3][]float64
	for i, rows := range cols {
		if out[i], err = mean(rows); err != nil {
			return nil, nil, nil, err
		}
	}
	return out[0], out[1], out[2], nil
}

// trimmedMean is the paper's aggregation over runs: a per-round mean
// with the trim fraction cut from each tail.
func trimmedMean(trim float64) func([][]float64) ([]float64, error) {
	return func(rows [][]float64) ([]float64, error) {
		return runpool.TrimmedMeanColumns(rows, trim)
	}
}
