package protocol

import (
	"runtime"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// roundAllocBudget is the loud-failure ceiling for one steady-state BA*
// round of a 100-node honest network. A warm round allocates 267 times
// on Go 1.24 (with or without -race and the metrics registry; it was
// ~670k before the slab/cache work); the budget leaves headroom for
// toolchain drift while still failing if payload pooling, the sortition
// cache or the event queue regress to per-call allocation.
const roundAllocBudget = 1_000

func TestRoundAllocBudget(t *testing.T) {
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
	runner.RunRounds(3) // warm pools, caches and map sizes
	allocs := testing.AllocsPerRun(5, func() {
		runner.RunRounds(1)
	})
	t.Logf("one warm round: %.0f allocs", allocs)
	if allocs > roundAllocBudget {
		t.Errorf("one round allocates %.0f times, budget %d — the allocation-lean hot path regressed", allocs, roundAllocBudget)
	}
}

// A warm sortition oracle must select and verify with zero heap
// allocations: the threshold table exists, the VRF runs on stack
// buffers, and the result is returned by value.
func TestSortitionSelectAllocFree(t *testing.T) {
	cache := sortition.NewCache()
	key := vrf.GenerateKey(sim.NewRNG(5, "alloc.sortition"))
	p := sortition.Params{
		Seed: [32]byte{1}, Role: sortition.RoleCommittee,
		Tau: 1_000, TotalStake: 1e6,
	}
	res, err := cache.Select(key.Private, 500, p) // builds the table
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.Round++
		if _, err := cache.Select(key.Private, 500, p); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm cached Select allocates %.1f times per call, want 0", allocs)
	}
	p.Round = 0
	if allocs := testing.AllocsPerRun(100, func() {
		if !cache.Verify(key.Public, 500, p, res) {
			t.Fatal("verify failed")
		}
	}); allocs > 0 {
		t.Errorf("warm cached Verify allocates %.1f times per call, want 0", allocs)
	}
	// The uncached scalar path is also allocation-free since the VRF and
	// message construction moved to stack buffers.
	if allocs := testing.AllocsPerRun(100, func() {
		p.Round++
		if _, err := sortition.Select(key.Private, 500, p); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("direct Select allocates %.1f times per call, want 0", allocs)
	}
}

// sparseColdAllocBudget bounds the bytes a fresh 5k-node sparse runner
// allocates over construction plus its first two rounds. The delivery
// logs recycle their blocks and nodes list the round's proposals by
// index into one table, so the cold cost stays near 6.5 MiB on Go 1.24.
// A block copy per (proposal, receiver) cost 18.4 MiB and one scheduler
// event per delivery 72 MiB; either, or log storage that is not
// recycled, fails here.
const sparseColdAllocBudget = 13 << 20

func TestSparseColdAllocBudget(t *testing.T) {
	const n = 5_000
	cfg := sparseTestConfig(n, 7, SparseOn)
	cfg.Params.TauStep = 100
	cfg.Params.TauFinal = 150
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRounds(2)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("construction plus two rounds: %.1f MiB", float64(got)/(1<<20))
	if got > sparseColdAllocBudget {
		t.Errorf("fresh sparse runner allocated %.1f MiB over construction and two rounds, budget %d MiB",
			float64(got)/(1<<20), sparseColdAllocBudget>>20)
	}
}
