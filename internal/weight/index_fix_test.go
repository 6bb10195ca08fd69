package weight_test

import (
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// TestDetachClearsOnlyOwnInstallation is the regression test for the
// install→install→Detach-first ordering: detaching a superseded index
// must not clobber the observer a later index installed, or the later
// index goes permanently stale.
func TestDetachClearsOnlyOwnInstallation(t *testing.T) {
	const n = 64
	stakes := genStakes(n, 11)
	l := ledger.Genesis(stakes, sim.NewRNG(11, "weight.test.genesis"))

	first := weight.NewIndex(l)
	second := weight.NewIndex(l) // replaces first as l's observer

	// Detaching the STALE index first must leave the second installed.
	first.Detach()
	if err := l.Credit(3, 7.5); err != nil {
		t.Fatal(err)
	}
	if got, want := second.Weight(1, 3), l.Stake(3); got != want {
		t.Fatalf("second index went stale after first.Detach: Weight(3) = %v, want %v", got, want)
	}

	// Detaching the live index releases it for real.
	second.Detach()
	if err := l.Credit(3, 2.5); err != nil {
		t.Fatal(err)
	}
	if got := second.Weight(1, 3); got == l.Stake(3) {
		t.Fatalf("second index still tracking after its own Detach: Weight(3) = %v", got)
	}
}

// TestClearStakeObserverToken pins the ledger-level compare-and-clear
// contract directly: a stale token is a no-op, the live token clears.
func TestClearStakeObserverToken(t *testing.T) {
	l := ledger.Genesis([]float64{1, 2, 3}, sim.NewRNG(12, "weight.test.genesis"))
	var aFired, bFired int
	tokA := l.SetStakeObserver(func(int, float64, float64) { aFired++ })
	tokB := l.SetStakeObserver(func(int, float64, float64) { bFired++ })
	if l.ClearStakeObserver(tokA) {
		t.Fatal("stale token cleared the live observer")
	}
	if err := l.Credit(0, 1); err != nil {
		t.Fatal(err)
	}
	if bFired != 1 || aFired != 0 {
		t.Fatalf("after stale clear: aFired=%d bFired=%d, want 0/1", aFired, bFired)
	}
	if !l.ClearStakeObserver(tokB) {
		t.Fatal("live token did not clear")
	}
	if err := l.Credit(0, 1); err != nil {
		t.Fatal(err)
	}
	if bFired != 1 {
		t.Fatalf("observer fired after clear: bFired=%d", bFired)
	}
	if l.ClearStakeObserver(0) {
		t.Fatal("zero token must never clear")
	}
}

// TestIndexTotalNoDriftUnderHeavyMutation runs over a million credit
// mutations and differentially pins the index's running total against
// the ledger's exact page-walk sum. The periodic exact re-sum bounds
// the float drift the per-mutation deltas accumulate; without it this
// schedule drifts measurably.
func TestIndexTotalNoDriftUnderHeavyMutation(t *testing.T) {
	const n = 400
	const mutations = 1_200_000
	stakes := genStakes(n, 13)
	l := ledger.Genesis(stakes, sim.NewRNG(13, "weight.test.genesis"))
	idx := weight.NewIndex(l)
	rng := sim.NewRNG(13, "weight.test.heavy")
	for i := 0; i < mutations; i++ {
		// Tiny irrational-ish amounts maximise representation error.
		if err := l.Credit(rng.Intn(n), rng.Float64()*1e-3); err != nil {
			t.Fatal(err)
		}
		if i%100_000 == 0 {
			if d := relDiff(idx.TotalWeight(1), l.TotalStake()); d > 1e-9 {
				t.Fatalf("after %d mutations: total drift %v > 1e-9 (index %v, ledger %v)",
					i, d, idx.TotalWeight(1), l.TotalStake())
			}
		}
	}
	if d := relDiff(idx.TotalWeight(1), l.TotalStake()); d > 1e-9 {
		t.Fatalf("final total drift %v > 1e-9 (index %v, ledger %v)",
			d, idx.TotalWeight(1), l.TotalStake())
	}
}
