// Package incentives_bench regenerates every table and figure of the
// paper's evaluation as Go benchmarks. Each benchmark runs a scaled-down
// configuration per iteration and reports the headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. cmd/benchgen produces the full CSV outputs.
package incentives_bench

import (
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/analysis"
	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/evolution"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/rewards"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// BenchmarkTableIII regenerates the Foundation reward schedule (Table III)
// and reports the period-1 per-round reward (paper: 20 Algos).
func BenchmarkTableIII(b *testing.B) {
	var perRound float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		perRound = res.Rows[0].PerRound
	}
	b.ReportMetric(perRound, "algos/round-period1")
}

// BenchmarkFig3 runs one defection simulation per iteration (Fig. 3 panel
// at 15% defection) and reports the mean final-block fraction.
func BenchmarkFig3(b *testing.B) {
	cfg := experiments.DefaultFig3Config()
	cfg.Runs = 1
	cfg.Rounds = 5
	cfg.DefectionRates = []float64{0.15}
	var meanFinal float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanFinal = res.Series[0].MeanFinal()
	}
	b.ReportMetric(meanFinal, "final-frac-d15")
}

// BenchmarkFig5 evaluates the (α, β) reward surface and reports the
// minimum feasible reward (paper: ≈5.2 Algos at (0.02, 0.03)).
func BenchmarkFig5(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	var minB float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		minB = res.GridBest.B
	}
	b.ReportMetric(minB, "algos-minB-grid")
}

// BenchmarkFig6 computes the B_i distribution across stake distributions
// (Fig. 6, scaled down) and reports the U(1,200) mean (paper: ~50 Algos
// at 500k nodes / 50M Algos).
func BenchmarkFig6(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Nodes = 20_000
	cfg.Runs = 3
	cfg.RoundsPerRun = 2
	var meanB float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanB = res.Panels[0].Summary.Mean
	}
	b.ReportMetric(meanB, "algos-B-u200")
}

// BenchmarkFig7AB compares per-round rewards of the mechanism against the
// Foundation schedule (Fig. 7 a-b) and reports the accumulated saving
// fraction after 12 periods.
func BenchmarkFig7AB(b *testing.B) {
	cfg := experiments.DefaultFig7Config()
	cfg.Nodes = 20_000
	cfg.Runs = 2
	cfg.RemovalThresholds = nil
	var saving float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := cfg.Periods - 1
		saving = 1 - res.Ours[1].Accumulated[last]/res.Foundation.Accumulated[last]
	}
	b.ReportMetric(saving, "saving-frac-n100-20")
}

// BenchmarkFig7C evaluates the small-stake removal curves (Fig. 7-c) and
// reports the ratio of the w=7 reward to the unfiltered reward.
func BenchmarkFig7C(b *testing.B) {
	cfg := experiments.DefaultFig7Config()
	cfg.Nodes = 20_000
	cfg.Runs = 2
	cfg.Distributions = []stake.Distribution{stake.Uniform{A: 1, B: 200}}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Removal[3].PerRound[0] / res.Removal[0].PerRound[0]
	}
	b.ReportMetric(ratio, "B-ratio-w7-vs-w0")
}

// BenchmarkEquilibrium certifies the analytical claims (Thm 1-3, Lemma 1)
// on random games and reports the fraction of claims holding (must be 1).
func BenchmarkEquilibrium(b *testing.B) {
	cfg := experiments.DefaultEquilibriumConfig()
	cfg.Samples = 5
	var ok float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunEquilibrium(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AllHold() {
			ok = 1
		} else {
			ok = 0
		}
	}
	b.ReportMetric(ok, "claims-hold")
}

// BenchmarkEvolution runs the repeated-round best-response dynamics under
// both schemes (extension experiment) and reports the role-based scheme's
// producing-prefix committee disposition (should stay ~1).
func BenchmarkEvolution(b *testing.B) {
	cfg := evolution.DefaultConfig(evolution.SchemeRoleBased)
	cfg.Rounds = 60
	cfg.Nodes = 150
	var disposition float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := evolution.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, disposition = res.PrefixStratCoop()
	}
	b.ReportMetric(disposition, "prefix-committee-coop")
}

// --- Ablations (DESIGN.md) ------------------------------------------------

// BenchmarkAblationOptimizer compares the closed-form Algorithm 1
// optimiser against dense grid search.
func BenchmarkAblationOptimizer(b *testing.B) {
	in := core.Inputs{
		SL: 26, SM: 13_000, SK: 50e6 - 13_026,
		MinLeader: 1, MinCommittee: 1, MinOther: 10,
		Costs: game.DefaultRoleCosts(),
	}
	b.Run("analytic", func(b *testing.B) {
		var minB float64
		for i := 0; i < b.N; i++ {
			p, err := core.Minimize(in)
			if err != nil {
				b.Fatal(err)
			}
			minB = p.MinB
		}
		b.ReportMetric(minB, "algos-minB")
	})
	b.Run("grid200", func(b *testing.B) {
		var minB float64
		for i := 0; i < b.N; i++ {
			p, err := core.GridMinimize(in, 200)
			if err != nil {
				b.Fatal(err)
			}
			minB = p.MinB
		}
		b.ReportMetric(minB, "algos-minB")
	})
}

// BenchmarkAblationSortition measures binomial sub-user sortition across
// stake magnitudes (the cost grows with the number of selected
// sub-users, not the raw stake).
func BenchmarkAblationSortition(b *testing.B) {
	rng := sim.NewRNG(1, "bench.sortition")
	key := vrf.GenerateKey(rng)
	for _, stakeSize := range []float64{10, 1_000, 100_000} {
		b.Run(benchName("stake", stakeSize), func(b *testing.B) {
			b.ReportAllocs()
			p := sortition.Params{
				Seed: [32]byte{1}, Role: sortition.RoleCommittee,
				Tau: 1000, TotalStake: 1e6,
			}
			for i := 0; i < b.N; i++ {
				p.Round = uint64(i)
				if _, err := sortition.Select(key.Private, stakeSize, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortitionSelect compares one Select through the scalar path
// against the cached threshold-table oracle (internal/sortition.Cache),
// with allocation counts reported; the alloc-budget tests in
// internal/protocol pin both paths at zero allocations.
func BenchmarkSortitionSelect(b *testing.B) {
	rng := sim.NewRNG(4, "bench.select")
	key := vrf.GenerateKey(rng)
	p := sortition.Params{
		Seed: [32]byte{3}, Role: sortition.RoleCommittee,
		Tau: 1000, TotalStake: 1e6,
	}
	const stake = 1_000
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := sortition.Select(key.Private, stake, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		cache := sortition.NewCache()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := cache.Select(key.Private, stake, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-verify", func(b *testing.B) {
		b.ReportAllocs()
		cache := sortition.NewCache()
		p.Round = 1
		res, err := cache.Select(key.Private, stake, p)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if !cache.Verify(key.Public, stake, p, res) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkAblationFanout measures how the gossip fan-out changes the
// defection collapse point: final fraction at 15% defection for k=3,5,8.
func BenchmarkAblationFanout(b *testing.B) {
	for _, fanout := range []int{3, 5, 8} {
		fanout := fanout
		b.Run(benchName("k", float64(fanout)), func(b *testing.B) {
			cfg := experiments.DefaultFig3Config()
			cfg.Runs = 1
			cfg.Rounds = 5
			cfg.Fanout = fanout
			cfg.DefectionRates = []float64{0.15}
			var frac float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				res, err := experiments.RunFig3(cfg)
				if err != nil {
					b.Fatal(err)
				}
				frac = res.Series[0].MeanFinal()
			}
			b.ReportMetric(frac, "final-frac")
		})
	}
}

// BenchmarkAblationStakeFloor compares Algorithm 1 with and without the
// paper's "ignore stakes below 10" sync-set floor on U(1,200).
func BenchmarkAblationStakeFloor(b *testing.B) {
	pop, err := stake.SamplePopulation(stake.Uniform{A: 1, B: 200}, 50_000, sim.NewRNG(3, "bench.floor"))
	if err != nil {
		b.Fatal(err)
	}
	costs := game.DefaultRoleCosts()
	for _, floor := range []float64{0, 10} {
		floor := floor
		b.Run(benchName("floor", floor), func(b *testing.B) {
			var bi float64
			for i := 0; i < b.N; i++ {
				p, err := core.ComputeParameters(pop, costs, core.Options{OtherFloor: floor})
				if err != nil {
					b.Fatal(err)
				}
				bi = p.B
			}
			b.ReportMetric(bi, "algos-B")
		})
	}
}

// BenchmarkWeakSync reproduces the Fig. 3-(c) asynchrony spike: a forced
// weak-synchrony window mid-run; reports the consensus-loss spike ratio.
func BenchmarkWeakSync(b *testing.B) {
	cfg := experiments.DefaultWeakSyncConfig()
	cfg.Runs = 1
	cfg.Rounds = 16
	cfg.WindowFrom, cfg.WindowTo = 7, 8
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiments.RunWeakSync(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.SpikeRatio()
	}
	b.ReportMetric(ratio, "loss-spike-ratio")
}

// BenchmarkSensitivity measures the elasticity analysis of Algorithm 1
// and reports the dominant elasticity (c^K, ≈ +6).
func BenchmarkSensitivity(b *testing.B) {
	in := experiments.PaperFig5Inputs()
	var top float64
	for i := 0; i < b.N; i++ {
		sens, err := analysis.MechanismSensitivities(in, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		if s, ok := analysis.MostSensitive(sens); ok {
			top = s.Elasticity
		}
	}
	b.ReportMetric(top, "max-elasticity")
}

// BenchmarkAblationSortitionScheme compares binomial sub-user sortition
// against the whole-node Bernoulli lottery (DESIGN.md ablation 1).
func BenchmarkAblationSortitionScheme(b *testing.B) {
	rng := sim.NewRNG(2, "bench.scheme")
	key := vrf.GenerateKey(rng)
	p := sortition.Params{
		Seed: [32]byte{2}, Role: sortition.RoleCommittee,
		Tau: 100, TotalStake: 10_000,
	}
	b.Run("binomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := sortition.Select(key.Private, 50, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bernoulli", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := sortition.SelectBernoulli(key.Private, 50, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProtocolRound measures the cost of one full BA* round in an
// all-honest 100-node network.
func BenchmarkProtocolRound(b *testing.B) {
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
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunRounds(1)
	}
}

// BenchmarkProtocolRoundSparse measures one warm round of a 5k-node
// network on the sparse path (absolute taus 100/150): committee sampling
// plus the mean-field delivery logs, the per-round work of the large-N
// Fig. 3 sweeps.
func BenchmarkProtocolRoundSparse(b *testing.B) {
	const n = 5_000
	stakes := make([]float64, n)
	behaviors := make([]protocol.Behavior, n)
	for i := range stakes {
		stakes[i] = float64(1 + i%50)
		behaviors[i] = protocol.Honest
	}
	params := protocol.DefaultParams()
	params.TauStep = 100
	params.TauFinal = 150
	runner, err := protocol.NewRunner(protocol.Config{
		Params:    params,
		Stakes:    stakes,
		Behaviors: behaviors,
		Seed:      1,
		Sparse:    protocol.SparseOn,
	})
	if err != nil {
		b.Fatal(err)
	}
	runner.RunRounds(2) // warm pools, tallies and log blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunRounds(1)
	}
}

// BenchmarkRewardDistribution measures the disbursement under both reward
// rules over a 10k-participant round.
func BenchmarkRewardDistribution(b *testing.B) {
	roles := protocol.RoundRoles{Round: 1}
	for i := 0; i < 5; i++ {
		roles.Leaders = append(roles.Leaders, protocol.RoleStake{ID: i, Stake: float64(i + 1), Weight: 1})
	}
	for i := 5; i < 100; i++ {
		roles.Committee = append(roles.Committee, protocol.RoleStake{ID: i, Stake: float64(i + 1), Weight: 1})
	}
	for i := 100; i < 10_000; i++ {
		roles.Others = append(roles.Others, protocol.RoleStake{ID: i, Stake: float64(i%200 + 1)})
	}
	for _, rule := range []game.RewardRule{game.FoundationRule{}, game.RoleBasedRule{Alpha: 0.02, Beta: 0.03}} {
		b.Run(rule.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rewards.Distribute(rule, 20, roles); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v float64) string {
	switch {
	case v == float64(int64(v)):
		return prefix + "=" + itoa(int64(v))
	default:
		return prefix
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
