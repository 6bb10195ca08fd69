package rewards

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

func TestScheduleTableIII(t *testing.T) {
	var s Schedule
	want := []float64{10, 13, 16, 19, 22, 25, 28, 31, 34, 36, 38, 38}
	if s.Periods() != 12 {
		t.Fatalf("Periods = %d", s.Periods())
	}
	for p := 1; p <= 12; p++ {
		got, err := s.PeriodReward(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[p-1]*1e6 {
			t.Errorf("period %d reward = %v, want %vM", p, got, want[p-1])
		}
	}
}

func TestScheduleTailRepeats(t *testing.T) {
	var s Schedule
	got, err := s.PeriodReward(13)
	if err != nil {
		t.Fatal(err)
	}
	if got != 38e6 {
		t.Errorf("period 13 reward = %v, want 38M (flat tail)", got)
	}
	if _, err := s.PeriodReward(0); err == nil {
		t.Error("period 0 accepted")
	}
}

func TestPeriodOfRound(t *testing.T) {
	var s Schedule
	cases := []struct {
		round uint64
		want  int
	}{
		{1, 1}, {500_000, 1}, {500_001, 2}, {1_000_000, 2}, {6_000_000, 12}, {0, 1},
	}
	for _, c := range cases {
		if got := s.PeriodOfRound(c.round); got != c.want {
			t.Errorf("PeriodOfRound(%d) = %d, want %d", c.round, got, c.want)
		}
	}
}

func TestRoundRewardPeriod1Is20Algos(t *testing.T) {
	// The paper: "in the first reward period, 10 millions Algos would be
	// distributed, which is equal to approximately 20 Algos for each
	// round".
	var s Schedule
	got, err := s.RoundReward(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("round 1 reward = %v, want 20", got)
	}
	if _, err := s.RoundReward(0); err == nil {
		t.Error("round 0 accepted")
	}
}

func TestFoundationPoolCeiling(t *testing.T) {
	p := NewFoundationPool()
	if p.Name() != "foundation" {
		t.Error("pool name")
	}
	accepted, err := p.Deposit(FoundationCeiling - 10)
	if err != nil || accepted != FoundationCeiling-10 {
		t.Fatalf("deposit: %v, %v", accepted, err)
	}
	// Next deposit is truncated at the ceiling.
	accepted, err = p.Deposit(100)
	if err != nil || accepted != 10 {
		t.Errorf("truncated deposit = %v (err %v), want 10", accepted, err)
	}
	// Pool is now full.
	if _, err := p.Deposit(1); !errors.Is(err, ErrCeilingReached) {
		t.Errorf("deposit past ceiling err = %v", err)
	}
	if p.Deposited() != FoundationCeiling {
		t.Errorf("Deposited = %v", p.Deposited())
	}
}

func TestPoolWithdraw(t *testing.T) {
	p := NewTransactionFeePool()
	if _, err := p.Deposit(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Withdraw(40); err != nil {
		t.Fatal(err)
	}
	if p.Balance() != 60 {
		t.Errorf("balance = %v", p.Balance())
	}
	if err := p.Withdraw(100); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("overdraft err = %v", err)
	}
	if err := p.Withdraw(-1); err == nil {
		t.Error("negative withdrawal accepted")
	}
	if _, err := p.Deposit(-1); err == nil {
		t.Error("negative deposit accepted")
	}
}

func TestTransactionFeePoolUncapped(t *testing.T) {
	p := NewTransactionFeePool()
	if _, err := p.Deposit(FoundationCeiling * 2); err != nil {
		t.Errorf("uncapped pool rejected deposit: %v", err)
	}
}

func testRoles() protocol.RoundRoles {
	return protocol.RoundRoles{
		Round: 1,
		Leaders: []protocol.RoleStake{
			{ID: 0, Stake: 10, Weight: 1},
			{ID: 1, Stake: 20, Weight: 2},
		},
		Committee: []protocol.RoleStake{
			{ID: 2, Stake: 10, Weight: 3},
			{ID: 3, Stake: 40, Weight: 9},
		},
		Others: []protocol.RoleStake{
			{ID: 4, Stake: 10},
			{ID: 5, Stake: 110},
		},
	}
}

func TestFoundationDistribute(t *testing.T) {
	shares, err := Distribute(game.FoundationRule{}, 200, testRoles())
	if err != nil {
		t.Fatal(err)
	}
	byID := sharesByID(shares)
	// Rate = 200/200 = 1 Algo per stake unit, role-blind.
	for id, stake := range map[int]float64{0: 10, 1: 20, 2: 10, 3: 40, 4: 10, 5: 110} {
		if math.Abs(byID[id]-stake) > 1e-9 {
			t.Errorf("id %d share = %v, want %v", id, byID[id], stake)
		}
	}
}

func TestRoleBasedDistribute(t *testing.T) {
	shares, err := Distribute(game.RoleBasedRule{Alpha: 0.2, Beta: 0.3}, 100, testRoles())
	if err != nil {
		t.Fatal(err)
	}
	byID := sharesByID(shares)
	want := map[int]float64{
		0: 20.0 * 10 / 30, 1: 20.0 * 20 / 30,
		2: 30.0 * 10 / 50, 3: 30.0 * 40 / 50,
		4: 50.0 * 10 / 120, 5: 50.0 * 110 / 120,
	}
	for id, w := range want {
		if math.Abs(byID[id]-w) > 1e-9 {
			t.Errorf("id %d share = %v, want %v", id, byID[id], w)
		}
	}
}

func TestRoleBasedEmptyGroupFolding(t *testing.T) {
	roles := testRoles()
	roles.Leaders = nil // no leader this round: α pool folds into γ
	shares, err := Distribute(game.RoleBasedRule{Alpha: 0.2, Beta: 0.3}, 100, roles)
	if err != nil {
		t.Fatal(err)
	}
	if total := TotalOf(shares); math.Abs(total-100) > 1e-9 {
		t.Errorf("value not conserved with empty group: %v", total)
	}
	byID := sharesByID(shares)
	// Others now share (0.2+0.5)*100 = 70.
	if math.Abs(byID[4]-70.0*10/120) > 1e-9 {
		t.Errorf("id 4 share = %v", byID[4])
	}
}

func TestRoleBasedNoOthers(t *testing.T) {
	roles := testRoles()
	roles.Others = nil // γ pool folds into the committee
	shares, err := Distribute(game.RoleBasedRule{Alpha: 0.2, Beta: 0.3}, 100, roles)
	if err != nil {
		t.Fatal(err)
	}
	if total := TotalOf(shares); math.Abs(total-100) > 1e-9 {
		t.Errorf("value not conserved: %v", total)
	}
}

func TestDistributeErrors(t *testing.T) {
	if _, err := Distribute(game.FoundationRule{}, -1, testRoles()); err == nil {
		t.Error("negative reward accepted")
	}
	if _, err := Distribute(game.FoundationRule{}, 10, protocol.RoundRoles{}); !errors.Is(err, ErrNoParticipants) {
		t.Errorf("empty roles err = %v", err)
	}
	if _, err := Distribute(game.RoleBasedRule{Alpha: 0, Beta: 0.3}, 10, testRoles()); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Distribute(game.RoleBasedRule{Alpha: 0.7, Beta: 0.4}, 10, testRoles()); err == nil {
		t.Error("alpha+beta>1 accepted")
	}
	if _, err := Distribute(game.RoleBasedRule{Alpha: 0.2, Beta: 0.3}, -5, testRoles()); err == nil {
		t.Error("negative reward accepted by role-based")
	}
}

func sharesByID(shares []Share) map[int]float64 {
	m := make(map[int]float64, len(shares))
	for _, s := range shares {
		m[s.ID] += s.Amount
	}
	return m
}

// Property: both rules conserve value for arbitrary stake assignments.
func TestDistributeConservationProperty(t *testing.T) {
	f := func(stakes [6]uint16, b uint16) bool {
		roles := testRoles()
		roles.Leaders[0].Stake = float64(stakes[0]%500) + 1
		roles.Leaders[1].Stake = float64(stakes[1]%500) + 1
		roles.Committee[0].Stake = float64(stakes[2]%500) + 1
		roles.Committee[1].Stake = float64(stakes[3]%500) + 1
		roles.Others[0].Stake = float64(stakes[4]%500) + 1
		roles.Others[1].Stake = float64(stakes[5]%500) + 1
		reward := float64(b) / 7
		for _, rule := range []game.RewardRule{game.FoundationRule{}, game.RoleBasedRule{Alpha: 0.1, Beta: 0.25}} {
			shares, err := Distribute(rule, reward, roles)
			if err != nil {
				return false
			}
			if math.Abs(TotalOf(shares)-reward) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
