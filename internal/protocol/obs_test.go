package protocol

import (
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// The coverage marker is API: reward-layer experiments key off its
// spelling before pricing TaskCounts, so both values and both strings
// are pinned here.
func TestCountersCoveragePinned(t *testing.T) {
	if CoverageFull.String() != "full" {
		t.Fatalf("CoverageFull spells %q, want \"full\"", CoverageFull.String())
	}
	if CoverageMaterializedOnly.String() != "materialized-only" {
		t.Fatalf("CoverageMaterializedOnly spells %q, want \"materialized-only\"", CoverageMaterializedOnly.String())
	}

	dense, err := NewRunner(sparseTestConfig(100, 1, SparseAuto))
	if err != nil {
		t.Fatal(err)
	}
	if got := dense.CountersCoverage(); got != CoverageFull {
		t.Fatalf("dense runner coverage = %v, want full", got)
	}

	sparse, err := NewRunner(sparseTestConfig(100, 1, SparseOn))
	if err != nil {
		t.Fatal(err)
	}
	if got := sparse.CountersCoverage(); got != CoverageMaterializedOnly {
		t.Fatalf("SparseOn runner coverage = %v, want materialized-only", got)
	}
}

// The coverage marker must also surface as the
// sim_counters_coverage_materialized_only gauge at construction.
func TestCoverageGaugeTracksRunner(t *testing.T) {
	obs.Disable()
	obs.Enable()
	defer obs.Disable()

	if _, err := NewRunner(sparseTestConfig(100, 1, SparseAuto)); err != nil {
		t.Fatal(err)
	}
	gauge := obs.DefaultSim().CoverageMaterializedOnly
	if got := gauge.Value(); got != 0 {
		t.Fatalf("gauge after dense construction = %d, want 0", got)
	}
	if _, err := NewRunner(sparseTestConfig(100, 1, SparseOn)); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("gauge after SparseOn construction = %d, want 1", got)
	}
}

// Telemetry's overhead contract: with the registry enabled, a round's
// metric flush is a fixed handful of atomic adds and must fit inside the
// same allocation budget as an uninstrumented round (0 extra allocs).
func TestRoundAllocBudgetWithMetrics(t *testing.T) {
	obs.Disable()
	obs.Enable()
	defer obs.Disable()

	stakes := make([]float64, 100)
	behaviors := make([]Behavior, 100)
	for i := range stakes {
		stakes[i] = float64(1 + i%50)
		behaviors[i] = Honest
	}
	runner, err := NewRunner(Config{
		Params:    DefaultParams(),
		Stakes:    stakes,
		Behaviors: behaviors,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if runner.metrics == nil {
		t.Fatal("enabled registry did not attach metrics to the runner")
	}
	runner.RunRounds(3) // warm pools, caches and map sizes
	allocs := testing.AllocsPerRun(5, func() {
		runner.RunRounds(1)
	})
	t.Logf("one warm instrumented round: %.0f allocs", allocs)
	if allocs > roundAllocBudget {
		t.Errorf("one instrumented round allocates %.0f times, budget %d — telemetry leaked onto the hot path", allocs, roundAllocBudget)
	}
}
