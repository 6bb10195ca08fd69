package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// BenchResult is one measured workload in the persisted benchmark file.
type BenchResult struct {
	// NsPerOp is wall time per operation (one round, one select, …).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from the Go benchmark memstats.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Iterations is the number of operations the harness settled on.
	Iterations int `json:"iterations"`
}

// BenchFile is the schema of BENCH_<pr>.json: a machine-readable
// perf trajectory point that future PRs diff against. Hardware context is
// recorded so cross-machine comparisons are flagged rather than trusted.
type BenchFile struct {
	PR     int    `json:"pr"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	// CPU is the processor model string (from /proc/cpuinfo on Linux;
	// empty when unavailable). goos/goarch/count alone collide across
	// very different machines — every 1-vCPU amd64 cloud runner matches —
	// so the ns/op gate only trusts baselines whose model string matches
	// too; files without one compare as unknown hardware (advisory).
	CPU string `json:"cpu,omitempty"`
	// Benchmarks maps workload name to its measurement.
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	// Headline pins the figure metrics the paper reproduction is judged
	// by; they are seed-deterministic, so an unexpected diff here means a
	// behaviour change, not noise.
	Headline map[string]float64 `json:"headline"`
	// Obs snapshots the telemetry registry's deterministic totals after
	// the obs-overhead workload: the simulation-derived counters (rounds,
	// scheduler events, sortition cache traffic, ...) its fixed window
	// produced. Informational — the compare gate ignores it — but it
	// keeps the metric families and their magnitudes visible in the
	// trajectory. Absent under the obs_off build tag.
	Obs map[string]uint64 `json:"obs,omitempty"`
}

// cpuModel reads the processor model string from /proc/cpuinfo; it
// returns "" on other platforms or when the field is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

func toResult(r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// bestOf measures fn samples times, reporting the MEDIAN allocation
// counts and the minimum ns/op across samples. The split matters:
// allocs/op must stay deterministic for the slack-gated compare, and
// since the whole sample sequence is seed-deterministic (workloads that
// advance a shared runner measure successive round windows in the same
// order every invocation), the median across samples is deterministic
// too — while absorbing a one-sample background-allocation spike (GC
// worker, timer wakeup) that a single-sample read would persist into
// the baseline and flake every later compare against. ns/op on a shared
// or thermally-throttled runner inflates under load, and the minimum
// across samples is the standard low-noise wall-clock estimator the
// ±20% regression gate wants.
func bestOf(samples int, fn func(b *testing.B)) BenchResult {
	results := make([]BenchResult, 0, samples)
	for i := 0; i < samples; i++ {
		results = append(results, toResult(testing.Benchmark(fn)))
	}
	out := results[0]
	allocs := make([]int64, 0, samples)
	bytes := make([]int64, 0, samples)
	for _, r := range results {
		if r.NsPerOp < out.NsPerOp {
			out.NsPerOp = r.NsPerOp
		}
		allocs = append(allocs, r.AllocsPerOp)
		bytes = append(bytes, r.BytesPerOp)
	}
	out.AllocsPerOp = medianInt64(allocs)
	out.BytesPerOp = medianInt64(bytes)
	return out
}

// medianInt64 returns the lower median of vs (sorted copy, element
// (n-1)/2): for the common all-equal case it is that value, and for an
// even sample count it picks a value actually measured rather than an
// average of two windows.
func medianInt64(vs []int64) int64 {
	s := make([]int64, len(vs))
	copy(s, vs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// genBench measures the hot-path workloads and headline figure metrics
// and writes them to path as JSON.
func genBench(path string, pr int) error {
	out, err := measureBench(pr)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// measureBench runs the full measurement pass and returns the bench
// file in memory — the bench target writes it out, the compare
// -selfcheck mode runs it twice and diffs the two results.
func measureBench(pr int) (*BenchFile, error) {
	// The round-based workloads measure a FIXED iteration count: the
	// simulation is seed-deterministic, so a fixed window runs the exact
	// same round sequence on every machine, making allocs/op reproducible
	// (the compare gate fails on any allocs increase) and amortising GC
	// and the rare weak-synchrony rounds (5% of rounds allocate above
	// steady state) identically everywhere. Time-based windows would
	// settle on machine-dependent iteration counts and mix rounds
	// differently run to run.
	testing.Init()
	setBenchtime := func(v string) error { return flag.Set("test.benchtime", v) }
	if err := setBenchtime("100x"); err != nil {
		return nil, err
	}
	out := BenchFile{
		PR:         pr,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Benchmarks: map[string]BenchResult{},
		Headline:   map[string]float64{},
	}

	// One full BA* round, 100 honest nodes — the workload the
	// allocation-lean hot path is optimised for.
	stakes := make([]float64, 100)
	behaviors := make([]protocol.Behavior, 100)
	for i := range stakes {
		stakes[i] = float64(1 + i%50)
		behaviors[i] = protocol.Honest
	}
	runner, err := protocol.NewRunner(protocol.Config{
		Params:    protocol.DefaultParams(),
		Stakes:    stakes,
		Behaviors: behaviors,
		Seed:      1,
	})
	if err != nil {
		return nil, err
	}
	// Warm pools, caches, the sortition oracle, and the calendar queue's
	// adaptive geometry before measuring: the steady-state round is the
	// workload the trajectory tracks, and the scheduler/dedup structures
	// finish converging (bucket widths, spare backings, table sizes) within
	// the first ~10 rounds.
	runner.RunRounds(12)
	fmt.Println("measuring protocol_round_100 ...")
	out.Benchmarks["protocol_round_100"] = bestOf(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runner.RunRounds(1)
		}
	})

	// One sparse-committee BA* round at 50k nodes: absolute committee taus
	// put the runner on the centralized-sampling path, where per-round cost
	// tracks the committee (a few hundred seats), not the population. A
	// fixed window, like the dense round workload, keeps allocs/op
	// reproducible.
	if err := setBenchtime("20x"); err != nil {
		return nil, err
	}
	sparseStakes := make([]float64, 50_000)
	sparseBehaviors := make([]protocol.Behavior, 50_000)
	for i := range sparseStakes {
		sparseStakes[i] = float64(1 + i%50)
		sparseBehaviors[i] = protocol.Honest
	}
	sparseParams := protocol.DefaultParams()
	sparseParams.TauStep = 200
	sparseParams.TauFinal = 300
	sparseRunner, err := protocol.NewRunner(protocol.Config{
		Params:    sparseParams,
		Stakes:    sparseStakes,
		Behaviors: sparseBehaviors,
		Seed:      1,
		Sparse:    protocol.SparseOn,
	})
	if err != nil {
		return nil, err
	}
	sparseRunner.RunRounds(6)
	fmt.Println("measuring protocol_round_sparse_50k ...")
	out.Benchmarks["protocol_round_sparse_50k"] = bestOf(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparseRunner.RunRounds(1)
		}
	})

	// One sortition selection, scalar vs cached threshold oracle. These
	// are ~650 ns micro-ops: a time-based window gives them the iteration
	// counts they need for stable ns/op (their allocs are pinned at zero
	// by TestSortitionSelectAllocFree regardless).
	if err := setBenchtime("5s"); err != nil {
		return nil, err
	}
	key := vrf.GenerateKey(sim.NewRNG(1, "benchgen.sortition"))
	p := sortition.Params{
		Seed: [32]byte{1}, Role: sortition.RoleCommittee,
		Tau: 1000, TotalStake: 1e6,
	}
	fmt.Println("measuring sortition_select_direct ...")
	out.Benchmarks["sortition_select_direct"] = toResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := sortition.Select(key.Private, 1_000, p); err != nil {
				b.Fatal(err)
			}
		}
	}))
	fmt.Println("measuring sortition_select_cached ...")
	cache := sortition.NewCache()
	out.Benchmarks["sortition_select_cached"] = toResult(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := cache.Select(key.Private, 1_000, p); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Fig. 3-class workload: one small defection simulation per
	// iteration, seeds 1..20 — a fixed window, like the round workload.
	if err := setBenchtime("20x"); err != nil {
		return nil, err
	}
	fmt.Println("measuring fig3_small ...")
	fig3 := experiments.DefaultFig3Config()
	fig3.Runs = 1
	fig3.Rounds = 5
	fig3.DefectionRates = []float64{0.15}
	// One run-pool worker: more workers only add goroutine-scheduling
	// allocations that vary run to run, which the zero-tolerance allocs
	// gate cannot distinguish from a regression.
	fig3.Workers = 1
	out.Benchmarks["fig3_small"] = bestOf(3, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fig3.Seed = int64(i + 1)
			if _, err := experiments.RunFig3(fig3); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One eclipse+equivocation scenario run, 100 nodes: the gate coverage
	// for the adversary engine and the network fault-overlay path. Like
	// the round workload it measures a fixed seeded window, so allocs/op
	// is deterministic; each iteration builds a fresh runner (scenario
	// runs are dominated by faulted rounds, not steady state).
	if err := setBenchtime("10x"); err != nil {
		return nil, err
	}
	fmt.Println("measuring scenario_eclipse_100 ...")
	eclipse, ok := adversary.Lookup(adversary.EclipseEquivocation)
	if !ok {
		// A miss would otherwise surface as b.Fatal inside
		// testing.Benchmark — a silent zero result the compare gate
		// reads as an improvement.
		return nil, fmt.Errorf("scenario %q not registered", adversary.EclipseEquivocation)
	}
	out.Benchmarks["scenario_eclipse_100"] = bestOf(3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scnRunner, err := protocol.NewRunner(protocol.Config{
				Params:    protocol.DefaultParams(),
				Stakes:    stakes,
				Behaviors: behaviors,
				Seed:      int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := adversary.Attach(scnRunner, eclipse); err != nil {
				b.Fatal(err)
			}
			scnRunner.RunRounds(10)
		}
	})

	// 500-node crash-churn scenario: the resync-heavy workload behind the
	// -full grid. Crash churn keeps a third of the network cycling
	// offline, so every round pays many catch-up clones — the cost the
	// copy-on-write ledger views bound at O(pages touched) per resync.
	// Fixed seeded window, arena reuse across iterations, like the grid.
	if err := setBenchtime("3x"); err != nil {
		return nil, err
	}
	churn, ok := adversary.Lookup("crash_churn")
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", "crash_churn")
	}
	churnStakes := make([]float64, 500)
	churnBehaviors := make([]protocol.Behavior, 500)
	for i := range churnStakes {
		churnStakes[i] = float64(1 + i%50)
		churnBehaviors[i] = protocol.Honest
	}
	churnBench := func(arena *protocol.Arena) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := protocol.NewRunner(protocol.Config{
					Params:    protocol.DefaultParams(),
					Stakes:    churnStakes,
					Behaviors: churnBehaviors,
					Seed:      int64(i + 1),
					Arena:     arena,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := adversary.Attach(r, churn); err != nil {
					b.Fatal(err)
				}
				r.RunRounds(6)
			}
		}
	}
	fmt.Println("measuring crash_churn_500 ...")
	out.Benchmarks["crash_churn_500"] = bestOf(2, churnBench(protocol.NewArena()))

	// Isolated resync micro-op: one CloneView plus a single-account write
	// on a 4096-account chain — the exact operation a desynchronised node
	// pays per catch-up, without the surrounding gossip traffic.
	if err := setBenchtime("5s"); err != nil {
		return nil, err
	}
	resyncSrc := func() *ledger.Ledger {
		stakes := make([]float64, 4096)
		for i := range stakes {
			stakes[i] = float64(1 + i%50)
		}
		l := ledger.Genesis(stakes, sim.NewRNG(1, "benchgen.resync"))
		for r := uint64(1); r <= 8; r++ {
			if err := l.Append(ledger.EmptyBlock(r, l.Tip(), ledger.NextSeed(l.Seed(), r))); err != nil {
				panic(err)
			}
		}
		return l
	}()
	resyncBench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := resyncSrc.CloneView()
			if err := v.Credit(i%4096, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	fmt.Println("measuring ledger_resync_4096 ...")
	out.Benchmarks["ledger_resync_4096"] = toResult(testing.Benchmark(resyncBench))

	// Per-round weight refresh on a 4096-account ledger: 16 scattered
	// credits (a busy round's reward mutations) followed by the runner's
	// refresh — WeightsInto plus TotalWeight. On the indexed backend the
	// StakeObserver already folded the credits in, so the refresh is a
	// dense copy and an O(1) total read; the _direct companion re-walks
	// the account pages every round and is informational (it measures
	// the default path, gated via protocol_round_100, not here). Fixed
	// windows keep allocs/op deterministic, like the round workload.
	if err := setBenchtime("1000x"); err != nil {
		return nil, err
	}
	refreshBench := func(backend weight.Backend) func(b *testing.B) {
		stakes := make([]float64, 4096)
		for i := range stakes {
			stakes[i] = float64(1 + i%50)
		}
		l := ledger.Genesis(stakes, sim.NewRNG(1, "benchgen.weight"))
		oracle, err := weight.ForLedger(l, backend)
		if err != nil {
			panic(err)
		}
		rng := sim.NewRNG(1, "benchgen.weight.credits")
		buf := make([]float64, 0, 4096)
		return func(b *testing.B) {
			b.ReportAllocs()
			var total float64
			for i := 0; i < b.N; i++ {
				for k := 0; k < 16; k++ {
					if err := l.Credit(rng.Intn(4096), 1); err != nil {
						b.Fatal(err)
					}
				}
				buf = oracle.WeightsInto(uint64(i), buf)
				total = oracle.TotalWeight(uint64(i))
			}
			if total <= 0 {
				b.Fatal("weight refresh lost the total")
			}
		}
	}
	fmt.Println("measuring weight_oracle_refresh ...")
	out.Benchmarks["weight_oracle_refresh"] = bestOf(3, refreshBench(weight.BackendIndexed))
	fmt.Println("measuring weight_oracle_refresh_direct ...")
	out.Benchmarks["weight_oracle_refresh_direct"] = bestOf(3, refreshBench(weight.BackendLedgerDirect))

	// Streamed -full grid through the memory-bounded summary fold: the
	// sink stack's end-to-end cost on a reduced 2x2 grid. Fixed seeded
	// windows, one worker, like the grid headline.
	if err := setBenchtime("3x"); err != nil {
		return nil, err
	}
	streamCfg := experiments.FullScenarioGridConfig()
	streamCfg.Scenarios = []string{adversary.HonestBaseline, "crash_churn"}
	streamCfg.Seeds = []int64{1, 2}
	streamCfg.Nodes = 60
	streamCfg.Rounds = 6
	streamCfg.Workers = 1
	streamBench := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := experiments.NewSummarySink(0)
			if err := experiments.StreamScenarioGrid(streamCfg, sink, experiments.StreamOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, err := sink.Table(); err != nil {
				b.Fatal(err)
			}
		}
	}
	fmt.Println("measuring grid_stream_summary ...")
	out.Benchmarks["grid_stream_summary"] = bestOf(2, streamBench)

	// Headline figure metrics at the pinned seeds (deterministic).
	fig3.Seed = 1
	res3, err := experiments.RunFig3(fig3)
	if err != nil {
		return nil, err
	}
	out.Headline["fig3_mean_final_d15"] = res3.Series[0].MeanFinal()
	resT, err := experiments.RunTable3()
	if err != nil {
		return nil, err
	}
	out.Headline["table3_per_round_period1"] = resT.Rows[0].PerRound
	res5, err := experiments.RunFig5(experiments.DefaultFig5Config())
	if err != nil {
		return nil, err
	}
	out.Headline["fig5_min_b_grid"] = res5.GridBest.B
	scnCfg := experiments.DefaultScenarioConfig(adversary.EclipseEquivocation)
	scnCfg.Nodes = 60
	scnCfg.Rounds = 8
	scnCfg.Runs = 2
	scnCfg.Workers = 1
	scnRes, err := experiments.RunScenario(scnCfg)
	if err != nil {
		return nil, err
	}
	out.Headline["scenario_eclipse_mean_final"] = scnRes.Audit.MeanFinalFrac
	// A reduced scenario×seed grid pins the -full path's determinism:
	// the mean final fraction across cells is seed-exact.
	gridCfg := experiments.FullScenarioGridConfig()
	gridCfg.Scenarios = []string{adversary.HonestBaseline, "crash_churn"}
	gridCfg.Seeds = []int64{1, 2}
	gridCfg.Nodes = 60
	gridCfg.Rounds = 6
	gridCfg.Workers = 1
	gridRes, err := experiments.RunScenarioGrid(gridCfg)
	if err != nil {
		return nil, err
	}
	gridFinal := 0.0
	for _, cell := range gridRes.Cells {
		gridFinal += cell.Audit.MeanFinalFrac
	}
	out.Headline["full_grid_mean_final"] = gridFinal / float64(len(gridRes.Cells))
	// The streamed counterpart pins the sink stack end to end: the p50 of
	// the per-round final fraction from the merged quantile sketches must
	// reproduce bit-for-bit at any worker count or shard split.
	streamSink := experiments.NewSummarySink(0)
	if err := experiments.StreamScenarioGrid(streamCfg, streamSink, experiments.StreamOptions{}); err != nil {
		return nil, err
	}
	streamTable, err := streamSink.Table()
	if err != nil {
		return nil, err
	}
	for _, col := range streamTable.Columns {
		if col.Name == "p50" {
			out.Headline["full_grid_stream_p50_final"] = col.Values[0]
		}
	}

	// Telemetry-overhead companion: the identical 100-node round with the
	// metrics registry enabled (a runner built after obs.Enable flushes
	// per-round counter deltas into it). Informational, not gated — its
	// job is keeping the registry's cost visible in the trajectory, where
	// the contract is <2% ns/op over protocol_round_100 and zero extra
	// allocs/op. It runs LAST: enabling the registry leaves a live
	// heap (registry + warmed runner) behind, which shifts GC pacing
	// enough to perturb the gated fixed-window alloc counts by a few
	// tens per op if any of them measure after it. Under the obs_off
	// build tag Enable is a no-op and the workload (plus the Obs
	// snapshot) is skipped.
	if err := setBenchtime("100x"); err != nil {
		return nil, err
	}
	preEnabled := obs.Default() != nil
	if reg := obs.Enable(); reg != nil {
		obsRunner, err := protocol.NewRunner(protocol.Config{
			Params:    protocol.DefaultParams(),
			Stakes:    stakes,
			Behaviors: behaviors,
			Seed:      1,
		})
		if err != nil {
			return nil, err
		}
		obsRunner.RunRounds(12)
		fmt.Println("measuring protocol_round_100_obs ...")
		out.Benchmarks["protocol_round_100_obs"] = bestOf(3, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obsRunner.RunRounds(1)
			}
		})
		out.Obs = reg.DeterministicTotals()
		if !preEnabled {
			obs.Disable() // leave a -metricsAddr session's registry alone
		}
	}

	return &out, nil
}
