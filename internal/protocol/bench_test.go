package protocol

import "testing"

// BenchmarkProtocolRound measures the cost of one full BA* round in an
// all-honest 100-node network.
func BenchmarkProtocolRound(b *testing.B) {
	runner, err := NewRunner(Config{
		Params:    DefaultParams(),
		Stakes:    benchStakes(100),
		Behaviors: behaviorsOf(100, Honest),
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
	params := DefaultParams()
	params.TauStep = 100
	params.TauFinal = 150
	runner, err := NewRunner(Config{
		Params:    params,
		Stakes:    benchStakes(n),
		Behaviors: behaviorsOf(n, Honest),
		Seed:      1,
		Sparse:    SparseOn,
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

// benchStakes is the benchmarks' population: stakes 1..50, cycling.
func benchStakes(n int) []float64 {
	stakes := make([]float64, n)
	for i := range stakes {
		stakes[i] = float64(1 + i%50)
	}
	return stakes
}
