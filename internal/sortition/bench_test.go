package sortition

import (
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// BenchmarkSortitionSelect compares one Select through the scalar path
// against the cached threshold-table oracle (Cache), with allocation
// counts reported; the alloc-budget tests in internal/protocol pin both
// paths at zero allocations.
func BenchmarkSortitionSelect(b *testing.B) {
	rng := sim.NewRNG(4, "bench.select")
	key := vrf.GenerateKey(rng)
	p := Params{
		Seed: [32]byte{3}, Role: RoleCommittee,
		Tau: 1000, TotalStake: 1e6,
	}
	const stake = 1_000
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := Select(key.Private, stake, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		cache := NewCache()
		for i := 0; i < b.N; i++ {
			p.Round = uint64(i)
			if _, err := cache.Select(key.Private, stake, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-verify", func(b *testing.B) {
		b.ReportAllocs()
		cache := NewCache()
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
