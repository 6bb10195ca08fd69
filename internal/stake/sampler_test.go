package stake

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightedSamplerNil(t *testing.T) {
	if NewWeightedSampler(nil) != nil {
		t.Error("nil population should yield nil sampler")
	}
	if NewWeightedSampler(&Population{}) != nil {
		t.Error("empty population should yield nil sampler")
	}
	if NewWeightedSampler(&Population{Stakes: []float64{0, 0}}) != nil {
		t.Error("zero-stake population should yield nil sampler")
	}
}

func TestWeightedSamplerProportionality(t *testing.T) {
	pop := &Population{Stakes: []float64{10, 30, 60}}
	s := NewWeightedSampler(pop)
	if s == nil {
		t.Fatal("nil sampler")
	}
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 3)
	const draws = 100_000
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng)]++
	}
	for i, want := range []float64{0.10, 0.30, 0.60} {
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d drawn %.3f, want %.3f", i, got, want)
		}
	}
}

func TestWeightedSamplerSkipsZeroStake(t *testing.T) {
	pop := &Population{Stakes: []float64{0, 100, 0}}
	s := NewWeightedSampler(pop)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10_000; i++ {
		if got := s.Sample(rng); got != 1 {
			t.Fatalf("drew zero-stake index %d", got)
		}
	}
}

// Property: the sampler always returns a valid index with positive stake.
func TestWeightedSamplerValidIndexProperty(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		stakes := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			stakes[i] = float64(r % 100)
			total += stakes[i]
		}
		pop := &Population{Stakes: stakes}
		s := NewWeightedSampler(pop)
		if total == 0 {
			return s == nil
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			idx := s.Sample(rng)
			if idx < 0 || idx >= len(stakes) || stakes[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
