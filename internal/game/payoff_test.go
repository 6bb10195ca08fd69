package game

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFoundationPayoutProportional(t *testing.T) {
	g := tinyGame(200) // B = S_N so the rate is exactly 1 Algo per stake
	out := g.Payout(FoundationRule{}, g.AllC(), true)
	for i, p := range g.Players {
		if math.Abs(out[i]-p.Stake) > 1e-9 {
			t.Errorf("player %d payout %v, want %v", i, out[i], p.Stake)
		}
	}
}

func TestFoundationPayoutNoBlock(t *testing.T) {
	g := tinyGame(200)
	out := g.Payout(FoundationRule{}, g.AllC(), false)
	for i, v := range out {
		if v != 0 {
			t.Errorf("player %d paid %v without a block", i, v)
		}
	}
}

func TestFoundationPaysDefectorsButNotOffline(t *testing.T) {
	g := tinyGame(200)
	profile := g.AllC()
	profile[5] = Defect
	profile[4] = Offline
	out := g.Payout(FoundationRule{}, profile, true)
	if out[4] != 0 {
		t.Error("offline player received a reward")
	}
	if out[5] <= 0 {
		t.Error("defector was not paid by the foundation rule (no punishment exists)")
	}
	// Remaining online stake is 190; player 5 holds 110 of it.
	want := 200.0 * 110 / 190
	if math.Abs(out[5]-want) > 1e-9 {
		t.Errorf("defector payout %v, want %v", out[5], want)
	}
}

func TestRoleBasedPayoutSplits(t *testing.T) {
	g := tinyGame(100)
	rule := RoleBasedRule{Alpha: 0.2, Beta: 0.3}
	out := g.Payout(rule, g.AllC(), true)
	// Leaders share 20: stakes 10,20 of SL=30.
	if math.Abs(out[0]-20.0/3) > 1e-9 || math.Abs(out[1]-40.0/3) > 1e-9 {
		t.Errorf("leader payouts %v, %v", out[0], out[1])
	}
	// Committee shares 30: stakes 10,40 of SM=50.
	if math.Abs(out[2]-6) > 1e-9 || math.Abs(out[3]-24) > 1e-9 {
		t.Errorf("committee payouts %v, %v", out[2], out[3])
	}
	// Others share 50: stakes 10,110 of SK=120.
	if math.Abs(out[4]-50.0*10/120) > 1e-9 || math.Abs(out[5]-50.0*110/120) > 1e-9 {
		t.Errorf("other payouts %v, %v", out[4], out[5])
	}
}

func TestRoleBasedDefectingLeaderJoinsOthersPool(t *testing.T) {
	// The Lemma 2 deviation payoff: a defecting leader earns
	// γB·s/(SK + s_l) instead of αB·s/SL.
	g := tinyGame(100)
	rule := RoleBasedRule{Alpha: 0.2, Beta: 0.3}
	profile := g.AllC()
	profile[0] = Defect
	out := g.Payout(rule, profile, g.BlockProduced(profile))
	gamma := 0.5
	want := gamma * 100 * 10 / (120 + 10)
	if math.Abs(out[0]-want) > 1e-9 {
		t.Errorf("defecting leader payout %v, want %v", out[0], want)
	}
	// The remaining leader now owns the whole α pool.
	if math.Abs(out[1]-0.2*100) > 1e-9 {
		t.Errorf("remaining leader payout %v, want 20", out[1])
	}
}

func TestRoleBasedGamma(t *testing.T) {
	r := RoleBasedRule{Alpha: 0.02, Beta: 0.03}
	if math.Abs(r.Gamma()-0.95) > 1e-12 {
		t.Errorf("Gamma = %v", r.Gamma())
	}
}

func TestStrategyCost(t *testing.T) {
	g := tinyGame(1)
	leader := g.Players[0]
	if g.StrategyCost(leader, Cooperate) != g.Costs.Leader {
		t.Error("cooperating leader must pay c^L")
	}
	if g.StrategyCost(leader, Defect) != g.Costs.Sortition {
		t.Error("defector must pay c_so")
	}
	if g.StrategyCost(leader, Offline) != g.Costs.Sortition {
		t.Error("offline must pay c_so")
	}
}

func TestPayoffsAllD(t *testing.T) {
	// Theorem 1's base case: under All-D everyone earns exactly -c_so.
	g := tinyGame(100)
	for _, rule := range []RewardRule{FoundationRule{}, RoleBasedRule{Alpha: 0.2, Beta: 0.3}} {
		payoffs := g.Payoffs(rule, g.AllD())
		for i, u := range payoffs {
			if math.Abs(u-(-g.Costs.Sortition)) > 1e-15 {
				t.Errorf("%s: player %d payoff %v, want -c_so", rule.Name(), i, u)
			}
		}
	}
}

func TestPayoffOfMatchesPayoffs(t *testing.T) {
	g := tinyGame(100)
	rule := RoleBasedRule{Alpha: 0.1, Beta: 0.2}
	profile := g.Theorem3Profile()
	all := g.Payoffs(rule, profile)
	for i := range g.Players {
		if one := g.PayoffOf(rule, profile, i); math.Abs(one-all[i]) > 1e-15 {
			t.Errorf("PayoffOf(%d) = %v, Payoffs[%d] = %v", i, one, i, all[i])
		}
	}
}

// Property: both rules conserve value — r^L·S_L + r^M·S_M + r^K·S_K = b
// whenever anyone holds stake, empty groups included.
func TestRatesConservationProperty(t *testing.T) {
	f := func(raw [3]uint16, aRaw, bRaw uint8, reward uint16) bool {
		var s [3]float64
		for i, x := range raw {
			if x%4 != 0 { // a quarter of the groups are empty
				s[i] = float64(x%1000) + 1
			}
		}
		b := float64(reward) / 7
		alpha := 0.01 + float64(aRaw%40)/100
		beta := 0.01 + float64(bRaw%40)/100
		for _, rule := range []RewardRule{FoundationRule{}, RoleBasedRule{Alpha: alpha, Beta: beta}} {
			rl, rm, rk := rule.Rates(b, s[0], s[1], s[2])
			if rl < 0 || rm < 0 || rk < 0 {
				return false
			}
			paid := rl*s[0] + rm*s[1] + rk*s[2]
			if s[0]+s[1]+s[2] > 0 && math.Abs(paid-b) > 1e-9*(1+b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRoleBasedRatesFolding pins where an empty group's pool goes: α and
// β to γ; γ to β, or to α when β is empty too.
func TestRoleBasedRatesFolding(t *testing.T) {
	rule := RoleBasedRule{Alpha: 0.2, Beta: 0.3}
	for _, c := range []struct {
		name                string
		sl, sm, sk          float64
		poolL, poolM, poolK float64 // expected rate × group stake
	}{
		{"all groups", 10, 20, 40, 20, 30, 50},
		{"no leaders", 0, 20, 40, 0, 30, 70},
		{"no committee", 10, 0, 40, 20, 0, 80},
		{"no others", 10, 20, 0, 20, 80, 0},
		{"leaders only", 10, 0, 0, 100, 0, 0},
		{"committee only", 0, 20, 0, 0, 100, 0},
		{"others only", 0, 0, 40, 0, 0, 100},
		{"nobody", 0, 0, 0, 0, 0, 0},
	} {
		rl, rm, rk := rule.Rates(100, c.sl, c.sm, c.sk)
		got := [3]float64{rl * c.sl, rm * c.sm, rk * c.sk}
		want := [3]float64{c.poolL, c.poolM, c.poolK}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("%s: pools %v, want %v", c.name, got, want)
				break
			}
		}
	}
}

func TestRuleValidate(t *testing.T) {
	if err := (FoundationRule{}).Validate(); err != nil {
		t.Errorf("foundation rule invalid: %v", err)
	}
	if err := (RoleBasedRule{Alpha: 0.2, Beta: 0.3}).Validate(); err != nil {
		t.Errorf("valid shares rejected: %v", err)
	}
	for _, r := range []RoleBasedRule{{Alpha: 0, Beta: 0.3}, {Alpha: 0.2, Beta: 0}, {Alpha: 0.7, Beta: 0.4}, {Alpha: 0.5, Beta: 0.5}} {
		if r.Validate() == nil {
			t.Errorf("shares α=%g β=%g accepted", r.Alpha, r.Beta)
		}
	}
}

// Property: foundation payouts are monotone in stake.
func TestFoundationMonotoneProperty(t *testing.T) {
	f := func(s1, s2 uint16) bool {
		g := tinyGame(100)
		g.Players[4].Stake = float64(s1%1000) + 1
		g.Players[5].Stake = float64(s2%1000) + 1
		out := g.Payout(FoundationRule{}, g.AllC(), true)
		if g.Players[4].Stake <= g.Players[5].Stake {
			return out[4] <= out[5]+1e-12
		}
		return out[5] <= out[4]+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRuleNames(t *testing.T) {
	if (FoundationRule{}).Name() != "foundation" {
		t.Error("foundation name")
	}
	if (RoleBasedRule{}).Name() != "role-based" {
		t.Error("role-based name")
	}
}
