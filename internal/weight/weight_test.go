package weight_test

import (
	"math"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// genStakes draws n uniform-integer stakes from a labelled stream.
func genStakes(n int, seed int64) []float64 {
	rng := sim.NewRNG(seed, "weight.test.stakes")
	stakes := make([]float64, n)
	for i := range stakes {
		stakes[i] = float64(1 + rng.Intn(50))
	}
	return stakes
}

// relDiff returns |a-b| / max(|a|,|b|), 0 when both are 0.
func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestLedgerDirectMatchesLedger pins the pass-through backend to the
// ledger's own reads, query for query.
func TestLedgerDirectMatchesLedger(t *testing.T) {
	stakes := genStakes(130, 1)
	l := ledger.Genesis(stakes, sim.NewRNG(1, "weight.test.genesis"))
	o := weight.NewLedgerDirect(l)
	if o.NumNodes() != l.NumAccounts() {
		t.Fatalf("NumNodes = %d, want %d", o.NumNodes(), l.NumAccounts())
	}
	for i := 0; i < o.NumNodes(); i++ {
		if got, want := o.Weight(1, i), l.Stake(i); got != want {
			t.Fatalf("Weight(%d) = %v, want %v", i, got, want)
		}
	}
	if got, want := o.TotalWeight(1), l.TotalStake(); got != want {
		t.Fatalf("TotalWeight = %v, want %v", got, want)
	}
	ws := o.WeightsInto(1, nil)
	for i, w := range ws {
		if w != l.Stake(i) {
			t.Fatalf("WeightsInto[%d] = %v, want %v", i, w, l.Stake(i))
		}
	}
}

// TestIndexDifferentialCredits mutates a ledger with a randomized credit
// schedule and differentially checks the incremental index against the
// ledger-direct oracle after every batch: per-node weights must match
// bit-for-bit (the index assignment-mirrors balances), totals to 1e-9
// relative (the running total accumulates deltas in mutation order, the
// page walk re-sums in index order).
func TestIndexDifferentialCredits(t *testing.T) {
	const n = 300
	stakes := genStakes(n, 2)
	l := ledger.Genesis(stakes, sim.NewRNG(2, "weight.test.genesis"))
	idx := weight.NewIndex(l)
	direct := weight.NewLedgerDirect(l)
	rng := sim.NewRNG(2, "weight.test.credits")
	for batch := 0; batch < 50; batch++ {
		for k := 0; k < 1+rng.Intn(20); k++ {
			if err := l.Credit(rng.Intn(n), rng.Float64()*10); err != nil {
				t.Fatal(err)
			}
		}
		round := uint64(batch + 1)
		for i := 0; i < n; i++ {
			if got, want := idx.Weight(round, i), direct.Weight(round, i); got != want {
				t.Fatalf("batch %d: Weight(%d) = %v, want %v", batch, i, got, want)
			}
		}
		if d := relDiff(idx.TotalWeight(round), direct.TotalWeight(round)); d > 1e-9 {
			t.Fatalf("batch %d: TotalWeight drift %g: index %v, direct %v",
				batch, d, idx.TotalWeight(round), direct.TotalWeight(round))
		}
	}
}

// TestRunnerIndexedDifferential drives a full BA* simulation on the
// indexed backend with rewards credited and transactions committed every
// round — both ledger mutation paths — and cross-checks the index
// against a ledger-direct oracle over the same canonical chain at every
// round end.
func TestRunnerIndexedDifferential(t *testing.T) {
	const nodes = 80
	const rounds = 12
	stakes := genStakes(nodes, 4)
	behaviors := make([]protocol.Behavior, nodes)
	for i := range behaviors {
		behaviors[i] = protocol.Honest
	}

	var runner *protocol.Runner
	rng := sim.NewRNG(4, "weight.test.mutations")
	mutated := false
	cfg := protocol.Config{
		Params:        protocol.DefaultParams(),
		Stakes:        stakes,
		Behaviors:     behaviors,
		Fanout:        5,
		Seed:          4,
		WeightBackend: weight.BackendIndexed,
		Reward: func(roles protocol.RoundRoles, report protocol.RoundReport) {
			// Credit the round's proposers (the reward path) and submit a
			// few transfers for the next block (the Append path); some
			// overdraw on purpose and must be skipped at apply.
			for _, rs := range roles.Leaders {
				if err := runner.Canonical().Credit(rs.ID, 2.5); err != nil {
					t.Fatal(err)
				}
				mutated = true
			}
			for k := 0; k < 4; k++ {
				from, to := rng.Intn(nodes), rng.Intn(nodes)
				runner.SubmitTransactionFee(from, to, rng.Float64()*3, 0.01)
			}
		},
	}
	var err error
	runner, err = protocol.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := runner.Weights().(*weight.Index)
	if !ok {
		t.Fatalf("backend selection: got %T, want *weight.Index", runner.Weights())
	}
	direct := weight.NewLedgerDirect(runner.Canonical())
	for r := 0; r < rounds; r++ {
		runner.RunRounds(1)
		round := runner.Canonical().Round()
		for i := 0; i < nodes; i++ {
			if got, want := idx.Weight(round, i), direct.Weight(round, i); got != want {
				t.Fatalf("round %d: Weight(%d) = %v, want %v", round, i, got, want)
			}
		}
		if d := relDiff(idx.TotalWeight(round), direct.TotalWeight(round)); d > 1e-9 {
			t.Fatalf("round %d: TotalWeight drift %g", round, d)
		}
	}
	if !mutated {
		t.Fatal("differential run never mutated the ledger; rewards did not fire")
	}
}

// TestForLedgerBadBackend pins the error path.
func TestForLedgerBadBackend(t *testing.T) {
	stakes := genStakes(16, 6)
	l := ledger.Genesis(stakes, sim.NewRNG(6, "weight.test.genesis"))
	if _, err := weight.ForLedger(l, weight.Backend(99)); err == nil {
		t.Fatal("want error for unknown backend")
	}
}

// TestSnapshotIsACopy guards the adversary contract: a Snapshot must not
// alias backend state that later mutations move under it.
func TestSnapshotIsACopy(t *testing.T) {
	stakes := genStakes(70, 7)
	l := ledger.Genesis(stakes, sim.NewRNG(7, "weight.test.genesis"))
	idx := weight.NewIndex(l)
	snap := weight.Snapshot(idx, 1)
	before := snap[3]
	if err := l.Credit(3, 1000); err != nil {
		t.Fatal(err)
	}
	if snap[3] != before {
		t.Fatal("Snapshot aliased the index's dense mirror")
	}
}

// TestRefreshAllocFree pins the runner's per-round weight refresh at
// zero allocations on both backends: 16 scattered credits (a busy
// round's reward mutations) on a 4096-account ledger, then WeightsInto
// into a reused buffer and TotalWeight.
func TestRefreshAllocFree(t *testing.T) {
	const n = 4096
	for _, backend := range []weight.Backend{weight.BackendLedgerDirect, weight.BackendIndexed} {
		t.Run(backend.String(), func(t *testing.T) {
			l := ledger.Genesis(genStakes(n, 8), sim.NewRNG(8, "weight.test.genesis"))
			o, err := weight.ForLedger(l, backend)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(8, "weight.test.credits")
			buf := make([]float64, 0, n)
			round := uint64(0)
			allocs := testing.AllocsPerRun(200, func() {
				round++
				for k := 0; k < 16; k++ {
					if err := l.Credit(rng.Intn(n), 1); err != nil {
						t.Fatal(err)
					}
				}
				buf = o.WeightsInto(round, buf)
				if o.TotalWeight(round) <= 0 {
					t.Fatal("refresh lost the total")
				}
			})
			if allocs > 0 {
				t.Errorf("refresh allocates %.1f times per round, want 0", allocs)
			}
		})
	}
}
