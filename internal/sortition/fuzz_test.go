package sortition

import (
	"math"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// FuzzSelectVerify asserts the sortition soundness invariants of the
// binomial sub-user lottery for arbitrary stakes and parameters:
//
//   - every Select result round-trips through Verify under the matching
//     public key (completeness);
//   - the selected sub-user count never exceeds the whole-unit stake;
//   - the cached oracle path is bit-identical to the direct path, so the
//     threshold tables can never drift from the scalar recurrence.
func FuzzSelectVerify(f *testing.F) {
	f.Add(int64(1), 50.0, 100.0, 10_000.0, uint64(3), uint64(1), uint8(2))
	f.Add(int64(2), 0.0, 26.0, 1e6, uint64(0), uint64(0), uint8(1))
	f.Add(int64(3), 1e6, 0.35, 1.0, uint64(9), uint64(7), uint8(3))
	f.Add(int64(4), 2.5, 1e9, 10.0, uint64(1), uint64(1<<20), uint8(2))
	f.Fuzz(func(t *testing.T, keySeed int64, stake, tau, total float64, round, step uint64, role uint8) {
		if math.IsNaN(stake) || math.IsInf(stake, 0) ||
			math.IsNaN(tau) || math.IsInf(tau, 0) ||
			math.IsNaN(total) || math.IsInf(total, 0) {
			t.Skip()
		}
		// Bound the whole-unit stake so one fuzz case cannot build a
		// gigabyte-scale threshold table or spin in bestPriority.
		if stake > 5e6 {
			t.Skip()
		}
		key := vrf.GenerateKey(sim.NewRNG(keySeed, "fuzz.sortition"))
		cache := NewCache()
		p := Params{
			Seed:       [32]byte{byte(round), byte(step)},
			Role:       Role(role),
			Round:      round,
			Step:       step,
			Tau:        tau,
			TotalStake: total,
		}
		valid := tau > 0 && total > 0 && stake >= 0

		res, err := Select(key.Private, stake, p)
		if !valid {
			if err == nil {
				t.Fatalf("Select accepted invalid params stake=%v tau=%v total=%v", stake, tau, total)
			}
			return
		}
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		if w := int(stake); res.SubUsers < 0 || res.SubUsers > w {
			t.Fatalf("SubUsers = %d outside [0, %d]", res.SubUsers, w)
		}
		if !Verify(key.Public, stake, p, res) {
			t.Fatalf("Verify rejected its own Select result (stake=%v p=%+v)", stake, p)
		}
		cached, err := cache.Select(key.Private, stake, p)
		if err != nil || cached != res {
			t.Fatalf("cached Select diverged: %+v vs %+v (err=%v)", cached, res, err)
		}
		if !cache.Verify(key.Public, stake, p, res) {
			t.Fatalf("cached Verify rejected a valid result")
		}
	})
}
