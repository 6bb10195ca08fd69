package sortition

import (
	"math"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// The cache must be a pure memoisation: for every input, cached selection
// and verification are bit-identical to the scalar recomputation.
func TestCacheSelectMatchesDirect(t *testing.T) {
	cache := NewCache()
	rng := sim.NewRNG(11, "cache.equiv")
	for trial := 0; trial < 2_000; trial++ {
		key := vrf.GenerateKey(rng)
		stake := float64(rng.Intn(5_000))
		p := Params{
			Seed:       [32]byte{byte(trial), byte(trial >> 8)},
			Role:       Role(1 + rng.Intn(3)),
			Round:      uint64(rng.Intn(100)),
			Step:       uint64(rng.Intn(20)),
			Tau:        float64(1 + rng.Intn(2_000)),
			TotalStake: float64(1_000 + rng.Intn(100_000)),
		}
		want, errWant := Select(key.Private, stake, p)
		got, errGot := cache.Select(key.Private, stake, p)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errWant, errGot)
		}
		if want != got {
			t.Fatalf("trial %d: cached Select diverged: %+v vs %+v (stake=%v tau=%v W=%v)",
				trial, got, want, stake, p.Tau, p.TotalStake)
		}
		if Verify(key.Public, stake, p, want) != cache.Verify(key.Public, stake, p, want) {
			t.Fatalf("trial %d: cached Verify diverged", trial)
		}
	}
}

// Sweep the u axis densely for a spread of (w, prob) pairs, including the
// regimes where the pmf underflows (large w·prob) and where the table is
// truncated early: lookup must equal the scalar scan at every threshold
// boundary.
func TestThresholdTableMatchesScalarScan(t *testing.T) {
	cache := NewCache()
	cases := []struct {
		w    int
		prob float64
	}{
		{1, 0.5}, {2, 0.1}, {10, 0.35}, {50, 0.45}, {50, 0.999},
		{200, 0.02}, {1_000, 0.001}, {10_000, 0.0001}, {10_000, 0.35},
		{100_000, 0.001}, {100_000, 0.5}, // exp underflow: pmf(0) == 0
	}
	for _, tc := range cases {
		table := cache.table(tc.w, tc.prob)
		// Probe every stored threshold, its neighbours, and a dense grid.
		probes := []float64{0, math.Nextafter(1, 0)}
		for _, c := range table.cdf {
			probes = append(probes, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for u := 0.0; u < 1; u += 1.0 / 512 {
			probes = append(probes, u)
		}
		for _, u := range probes {
			if u < 0 || u >= 1 {
				continue
			}
			want := subUsers(u, tc.w, tc.prob)
			got := cache.subUsers(u, tc.w, tc.prob)
			if want != got {
				t.Fatalf("w=%d prob=%v u=%v: cached %d, scalar %d", tc.w, tc.prob, u, got, want)
			}
		}
	}
}

// Cache keys fold in every statistics-relevant input, so stake or τ/W
// changes land on fresh tables while repeat queries hit existing ones.
func TestCacheKeyingAndReset(t *testing.T) {
	cache := NewCache()
	key := vrf.GenerateKey(sim.NewRNG(3, "cache.keys"))
	p := Params{Seed: [32]byte{1}, Role: RoleCommittee, Tau: 100, TotalStake: 10_000}

	if _, err := cache.Select(key.Private, 50, p); err != nil {
		t.Fatal(err)
	}
	if cache.Size() != 1 {
		t.Fatalf("size = %d after first select, want 1", cache.Size())
	}
	// Same stake and probability, different round: VRF input changes but
	// the threshold table is reused.
	p.Round = 9
	if _, err := cache.Select(key.Private, 50, p); err != nil {
		t.Fatal(err)
	}
	if cache.Size() != 1 {
		t.Fatalf("size = %d after same-key select, want 1", cache.Size())
	}
	// Stake change: new key.
	if _, err := cache.Select(key.Private, 51, p); err != nil {
		t.Fatal(err)
	}
	// τ change: new probability, new key.
	p.Tau = 200
	if _, err := cache.Select(key.Private, 50, p); err != nil {
		t.Fatal(err)
	}
	if cache.Size() != 3 {
		t.Fatalf("size = %d after stake+tau changes, want 3", cache.Size())
	}
	cache.Reset()
	if cache.Size() != 0 {
		t.Fatalf("size = %d after Reset, want 0", cache.Size())
	}
	// Reset only drops memory; results are unchanged.
	res, err := cache.Select(key.Private, 50, p)
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Verify(key.Public, 50, p, res) {
		t.Fatal("post-Reset result fails verification")
	}
}

// Invalid parameters must be rejected exactly like the direct API.
func TestCacheInvalidParams(t *testing.T) {
	cache := NewCache()
	key := vrf.GenerateKey(sim.NewRNG(4, "cache.invalid"))
	good := Params{Tau: 10, TotalStake: 100}
	for _, p := range []Params{{Tau: 0, TotalStake: 100}, {Tau: 10, TotalStake: 0}} {
		if _, err := cache.Select(key.Private, 5, p); err == nil {
			t.Errorf("params %+v: expected error", p)
		}
		if cache.Verify(key.Public, 5, p, Result{}) {
			t.Errorf("params %+v: Verify accepted invalid params", p)
		}
	}
	if _, err := cache.Select(key.Private, -1, good); err == nil {
		t.Error("negative stake: expected error")
	}
}
