package experiments

import (
	"math"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/rewards"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// TestFullPipeline wires every subsystem together the way a deployment
// would: the BA* simulator produces blocks and fees; the funding source
// drips the Table III schedule into the Foundation pool and pays each
// round's B_i; Algorithm 1 recomputes B_i from the live ledger stakes;
// the role-based rule disburses to the realised roles; and the credits
// land back on the ledger. Each decided round's disbursement must also
// equal the payoff game's payout on the same roles, under both rules.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	const nodes = 60
	rng := sim.NewRNG(77, "integration")
	pop, err := stake.SamplePopulation(stake.UniformInt{A: 1, B: 50}, nodes, rng)
	if err != nil {
		t.Fatal(err)
	}
	behaviors := make([]protocol.Behavior, nodes)
	for i := range behaviors {
		behaviors[i] = protocol.Honest
	}
	behaviors[7] = protocol.Selfish

	costs := game.DefaultRoleCosts()
	source := rewards.NewSource()
	committee := core.CommitteeConfig{TauProposer: 5, SStep: 50, Steps: 3, SFinal: 100}

	var runner *protocol.Runner
	var disbursed, funded float64
	var rewardRounds int
	runner, err = protocol.NewRunner(protocol.Config{
		Params:    protocol.DefaultParams(),
		Stakes:    pop.Stakes,
		Behaviors: behaviors,
		Seed:      77,
		Reward: func(roles protocol.RoundRoles, report protocol.RoundReport) {
			if !report.Decided {
				return
			}
			live := &stake.Population{Stakes: runner.Canonical().Stakes()}
			params, err := core.ComputeParameters(live, costs, core.Options{Committee: committee})
			if err != nil {
				t.Errorf("round %d: compute: %v", report.Round, err)
				return
			}
			pool, err := source.Withdraw(report.Round, params.B)
			if err != nil {
				t.Errorf("round %d: withdraw: %v", report.Round, err)
				return
			}
			if pool != "foundation" {
				t.Errorf("round %d funded from %q", report.Round, pool)
			}
			rule := game.RoleBasedRule{Alpha: params.Alpha, Beta: params.Beta}
			for _, r := range []game.RewardRule{game.FoundationRule{}, rule} {
				checkDistributeMatchesGame(t, r, params.B, roles)
			}
			shares, err := rewards.Distribute(rule, params.B, roles)
			if err != nil {
				t.Errorf("round %d: distribute: %v", report.Round, err)
				return
			}
			for _, s := range shares {
				if err := runner.Canonical().Credit(s.ID, s.Amount); err != nil {
					t.Errorf("credit %d: %v", s.ID, err)
				}
			}
			disbursed += rewards.TotalOf(shares)
			funded += params.B
			rewardRounds++
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Workload with fees.
	for i := 0; i < 20; i++ {
		runner.SubmitTransactionFee(rng.Intn(nodes), rng.Intn(nodes), 0.5, 0.05)
	}
	before := runner.Canonical().TotalStake()
	runner.RunRounds(6)

	if rewardRounds == 0 {
		t.Fatal("no rounds were rewarded")
	}
	// Value conservation: ledger total = genesis − fees + disbursed.
	fees := runner.FeesCollected()
	after := runner.Canonical().TotalStake()
	if math.Abs(after-(before-fees+disbursed)) > 1e-6 {
		t.Errorf("ledger total %v, want %v (genesis %v − fees %v + rewards %v)",
			after, before-fees+disbursed, before, fees, disbursed)
	}
	// Disbursement matched the funding exactly.
	if math.Abs(disbursed-funded) > 1e-9 {
		t.Errorf("disbursed %v != funded %v", disbursed, funded)
	}
	// Fees can be deposited to the fee pool for the future phase.
	if err := source.DepositFees(fees); err != nil {
		t.Fatal(err)
	}
	if source.FeeBalance() != fees {
		t.Errorf("fee pool balance %v, want %v", source.FeeBalance(), fees)
	}
	// Chain integrity end to end.
	if err := runner.Canonical().VerifyChain(); err != nil {
		t.Error(err)
	}
}

// checkDistributeMatchesGame builds the round game of a simulated round's
// roles — leaders, committee and others, all cooperating — and checks that
// rewards.Distribute pays every node what Game.Payout does.
func checkDistributeMatchesGame(t *testing.T, rule game.RewardRule, b float64, roles protocol.RoundRoles) {
	t.Helper()
	g := &game.Game{B: b, Costs: game.DefaultRoleCosts(), QuorumFrac: 0.685}
	for _, group := range []struct {
		role    game.Role
		members []protocol.RoleStake
	}{{game.RoleLeader, roles.Leaders}, {game.RoleCommittee, roles.Committee}, {game.RoleOther, roles.Others}} {
		for _, rs := range group.members {
			g.Players = append(g.Players, game.Player{ID: rs.ID, Role: group.role, Stake: rs.Stake})
		}
	}
	shares, err := rewards.Distribute(rule, b, roles)
	if err != nil {
		t.Errorf("round %d: %s: distribute: %v", roles.Round, rule.Name(), err)
		return
	}
	paid := make(map[int]float64, len(shares))
	for _, s := range shares {
		paid[s.ID] += s.Amount
	}
	payout := g.Payout(rule, g.AllC(), true)
	if len(paid) != len(g.Players) {
		t.Errorf("round %d: %s: %d shares for %d players", roles.Round, rule.Name(), len(paid), len(g.Players))
	}
	for i, p := range g.Players {
		if math.Abs(paid[p.ID]-payout[i]) > 1e-12 {
			t.Errorf("round %d: %s: node %d distributed %v, game pays %v", roles.Round, rule.Name(), p.ID, paid[p.ID], payout[i])
		}
	}
}
