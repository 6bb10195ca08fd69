package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

func testPopulation(t *testing.T, dist stake.Distribution, n int) *stake.Population {
	t.Helper()
	pop, err := stake.SamplePopulation(dist, n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestDefaultCommittee(t *testing.T) {
	c := DefaultCommittee()
	if c.ExpectedSL() != 26 {
		t.Errorf("SL = %v, want 26", c.ExpectedSL())
	}
	// SM = SSTEP*(2+1) + SFINAL = 1000*3 + 10000 = 13000 per the paper.
	if c.ExpectedSM() != 13_000 {
		t.Errorf("SM = %v, want 13000", c.ExpectedSM())
	}
}

func TestInputsFromPopulation(t *testing.T) {
	pop := testPopulation(t, stake.Uniform{A: 1, B: 200}, 10_000)
	in, err := InputsFromPopulation(pop, game.DefaultRoleCosts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.SL != 26 || in.SM != 13_000 {
		t.Errorf("role stakes = %v, %v", in.SL, in.SM)
	}
	if math.Abs(in.SK-(pop.Total()-13_026)) > 1e-6 {
		t.Errorf("SK = %v", in.SK)
	}
	if in.MinOther != pop.Min() {
		t.Errorf("MinOther = %v, want population min %v", in.MinOther, pop.Min())
	}
	if in.MinLeader != 1 || in.MinCommittee != 1 {
		t.Errorf("role minimums = %v, %v, want 1", in.MinLeader, in.MinCommittee)
	}
}

func TestInputsFromPopulationFloor(t *testing.T) {
	pop := &stake.Population{Stakes: []float64{1, 2, 50, 100, 200000}}
	in, err := InputsFromPopulation(pop, game.DefaultRoleCosts(), Options{OtherFloor: 10})
	if err != nil {
		t.Fatal(err)
	}
	if in.MinOther != 50 {
		t.Errorf("MinOther with floor 10 = %v, want 50", in.MinOther)
	}
	if _, err := InputsFromPopulation(pop, game.DefaultRoleCosts(), Options{OtherFloor: 1e9}); err == nil {
		t.Error("floor above all stakes accepted")
	}
}

func TestInputsFromPopulationErrors(t *testing.T) {
	if _, err := InputsFromPopulation(nil, game.DefaultRoleCosts(), Options{}); err == nil {
		t.Error("nil population accepted")
	}
	tiny := &stake.Population{Stakes: []float64{1, 2}}
	if _, err := InputsFromPopulation(tiny, game.DefaultRoleCosts(), Options{}); err == nil {
		t.Error("population smaller than committee expectations accepted")
	}
}

func TestInputsFromGame(t *testing.T) {
	var players []game.Player
	add := func(role game.Role, stakes ...float64) {
		for _, st := range stakes {
			players = append(players, game.Player{ID: len(players), Role: role, Stake: st, InSyncSet: role == game.RoleOther})
		}
	}
	add(game.RoleLeader, 5, 10)
	add(game.RoleCommittee, 3, 7, 2)
	add(game.RoleOther, 100, 50)
	in, err := InputsFromGame(&game.Game{Players: players, Costs: game.DefaultRoleCosts(), B: 1, QuorumFrac: 0.685})
	if err != nil {
		t.Fatal(err)
	}
	if in.SL != 15 || in.SM != 12 || in.SK != 150 {
		t.Errorf("totals = %+v", in)
	}
	if in.MinLeader != 5 || in.MinCommittee != 2 || in.MinOther != 50 {
		t.Errorf("minimums = %+v", in)
	}
	noLeader := &game.Game{Players: players[2:], Costs: game.DefaultRoleCosts(), B: 1, QuorumFrac: 0.685}
	if _, err := InputsFromGame(noLeader); err == nil {
		t.Error("empty leader group accepted")
	}
}

func TestComputeParametersPaperScale(t *testing.T) {
	// U(1,200) on ~50M Algos: the required reward is dominated by the
	// others bound with s*_k = 1, landing near 50 Algos (paper: "around
	// 50 Algos for uniform distribution").
	pop := testPopulation(t, stake.Uniform{A: 1, B: 200}, 500_000)
	p, err := ComputeParameters(pop, game.DefaultRoleCosts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.B < 30 || p.B > 70 {
		t.Errorf("U(1,200) B = %v, want ~50 Algos", p.B)
	}
}

func TestComputeParametersOrdering(t *testing.T) {
	// Fig. 6 ordering: U(1,200) needs a (much) larger reward than
	// N(100,10), which needs more than N(2000,25).
	costs := game.DefaultRoleCosts()
	bFor := func(d stake.Distribution) float64 {
		pop := testPopulation(t, d, 100_000)
		p, err := ComputeParameters(pop, costs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		return p.B
	}
	bu := bFor(stake.Uniform{A: 1, B: 200})
	bn10 := bFor(stake.Normal{Mu: 100, Sigma: 10})
	bn2000 := bFor(stake.Normal{Mu: 2000, Sigma: 25})
	if !(bu > bn10 && bn10 > bn2000) {
		t.Errorf("ordering violated: U=%v N(100,10)=%v N(2000,25)=%v", bu, bn10, bn2000)
	}
}

func TestRemovalReducesReward(t *testing.T) {
	// Fig. 7-(c): removing stakes below w shrinks the required reward.
	pop := testPopulation(t, stake.Uniform{A: 1, B: 200}, 100_000)
	costs := game.DefaultRoleCosts()
	prev := math.Inf(1)
	for _, w := range []float64{0, 3, 5, 7} {
		p := pop
		if w > 0 {
			p = pop.RemoveBelow(w)
		}
		params, err := ComputeParameters(p, costs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if params.B >= prev {
			t.Errorf("w=%v: B=%v did not decrease (prev %v)", w, params.B, prev)
		}
		prev = params.B
	}
}

func TestVerifyIncentiveCompatible(t *testing.T) {
	in := paperInputs()
	p, err := Minimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyIncentiveCompatible(in, p); err != nil {
		t.Errorf("optimal parameters rejected: %v", err)
	}
	// Halving the reward must yield a detectable deviation.
	broken := p
	broken.B = p.MinB * 0.5
	if err := VerifyIncentiveCompatible(in, broken); err == nil {
		t.Error("under-funded parameters certified as incentive compatible")
	}
}

func TestBuildGameStakesMatchInputs(t *testing.T) {
	in := paperInputs()
	g := BuildGame(in, 10)
	tt := g.Totals()
	if math.Abs(tt.SL-in.SL) > 1e-6 || math.Abs(tt.SM-in.SM) > 1e-6 || math.Abs(tt.SK-in.SK) > 1e-6 {
		t.Errorf("game totals %+v do not match inputs", tt)
	}
	if tt.MinL != in.MinLeader || tt.MinM != in.MinCommittee || tt.MinKSync != in.MinOther {
		t.Errorf("game minimums %+v do not match inputs", tt)
	}
	back, err := InputsFromGame(g)
	if err != nil {
		t.Fatal(err)
	}
	if back.SL != tt.SL || back.SM != tt.SM || back.SK != tt.SK || back.MinOther != in.MinOther || back.Costs != in.Costs {
		t.Errorf("InputsFromGame(BuildGame(in)) = %+v, want %+v", back, in)
	}
}

func TestController(t *testing.T) {
	pop := testPopulation(t, stake.Normal{Mu: 100, Sigma: 10}, 50_000)
	c := NewController(game.DefaultRoleCosts(), Options{})
	var total float64
	for i := 0; i < 5; i++ {
		p, err := c.Step(pop)
		if err != nil {
			t.Fatal(err)
		}
		total += p.B
	}
	if math.Abs(c.TotalDisbursed()-total) > 1e-9 {
		t.Errorf("TotalDisbursed = %v, want %v", c.TotalDisbursed(), total)
	}
	if len(c.History()) != 5 {
		t.Errorf("history length = %d", len(c.History()))
	}
	// History must be a copy.
	c.History()[0].B = -1
	if c.History()[0].B == -1 {
		t.Error("History leaks internal state")
	}
}
