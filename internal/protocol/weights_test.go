package protocol

import (
	"errors"
	"math"
	"testing"
)

// TestCheckWeightsBounds pins the round's weight check at its edges:
// weights in [0, 2^53) with a finite total pass, anything else returns a
// *WeightRangeError naming the first offending node, or node -1 for the
// total.
func TestCheckWeightsBounds(t *testing.T) {
	for _, ok := range [][]float64{{}, {0, 1, 25.5}, {math.Copysign(0, -1)}, {maxWeight - 1, 3}} {
		if err := CheckWeights(1, ok, 0); err != nil {
			t.Errorf("weights %v: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		weights []float64
		total   float64
		node    int
	}{
		{[]float64{1, math.NaN()}, 1, 1},
		{[]float64{-1, 2}, 1, 0},
		{[]float64{1, 2, math.Inf(1)}, 3, 2},
		{[]float64{maxWeight}, 1, 0},
		{[]float64{1e200}, 1e200, 0},
		{[]float64{1, 2}, math.Inf(1), -1},
		{[]float64{1, 2}, math.NaN(), -1},
	} {
		var rangeErr *WeightRangeError
		err := CheckWeights(4, tc.weights, tc.total)
		if !errors.As(err, &rangeErr) || rangeErr.Node != tc.node || rangeErr.Round != 4 {
			t.Errorf("weights %v total %v: err %v, want a WeightRangeError at node %d", tc.weights, tc.total, err, tc.node)
		}
	}
}

// rangeOracle answers every round with fixed weights.
type rangeOracle struct{ w []float64 }

func (o rangeOracle) NumNodes() int                     { return len(o.w) }
func (o rangeOracle) Weight(_ uint64, node int) float64 { return o.w[node] }
func (o rangeOracle) TotalWeight(uint64) float64        { return 100 }
func (o rangeOracle) WeightsInto(_ uint64, dst []float64) []float64 {
	return append(dst[:0], o.w...)
}

// TestRunnerStopsOnWeightRange runs a population whose oracle returns a
// NaN weight: the run stops at its first round with a typed error
// instead of simulating stalls.
func TestRunnerStopsOnWeightRange(t *testing.T) {
	w := testStakes(20)
	w[7] = math.NaN()
	r, err := NewRunner(Config{
		Params:    DefaultParams(),
		Stakes:    testStakes(20),
		Behaviors: behaviorsOf(20, Honest),
		Weights:   rangeOracle{w},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := r.RunRounds(3)
	var rangeErr *WeightRangeError
	if len(reps) != 0 || !errors.As(r.Err(), &rangeErr) || rangeErr.Node != 7 {
		t.Fatalf("%d rounds, err %v; want none and a WeightRangeError at node 7", len(reps), r.Err())
	}
}
