// Command quickstart walks through the library end to end: it simulates a
// few Algorand BA* rounds on a small network, computes the
// incentive-compatible reward parameters (Algorithm 1) for the realised
// stake population, disburses the reward with the role-based scheme, and
// certifies that cooperation is a Nash equilibrium at that reward.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/rewards"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const nodes = 80
	const rounds = 5

	// 1. A stake population: 80 nodes holding U(1,50) Algos, as in the
	//    paper's protocol simulations.
	rng := rand.New(rand.NewSource(42))
	pop, err := stake.SamplePopulation(stake.UniformInt{A: 1, B: 50}, nodes, rng)
	if err != nil {
		return err
	}

	// 2. Run the BA* protocol for a few rounds, paying each decided round's
	//    20 Algos to its realised roles with the role-based split.
	costs := game.DefaultRoleCosts()
	rule := game.RoleBasedRule{Alpha: 0.02, Beta: 0.03}
	behaviors := make([]protocol.Behavior, nodes)
	for i := range behaviors {
		behaviors[i] = protocol.Honest
	}

	var disbursed float64
	var payErr error
	runner, err := protocol.NewRunner(protocol.Config{
		Params:    protocol.DefaultParams(),
		Stakes:    pop.Stakes,
		Behaviors: behaviors,
		Fanout:    5,
		Seed:      42,
		Reward: func(roles protocol.RoundRoles, report protocol.RoundReport) {
			if !report.Decided {
				return // no block, no reward
			}
			shares, err := rewards.Distribute(rule, 20, roles)
			if err != nil {
				payErr = err
				return
			}
			disbursed += rewards.TotalOf(shares)
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("== BA* protocol simulation ==")
	for _, rep := range runner.RunRounds(rounds) {
		fmt.Printf("round %d: final %5.1f%%  tentative %5.1f%%  none %5.1f%%  (decided=%v)\n",
			rep.Round, 100*rep.FinalFrac(), 100*rep.TentativeFrac(), 100*rep.NoneFrac(), rep.Decided)
	}
	if payErr != nil {
		return fmt.Errorf("disbursement: %w", payErr)
	}
	fmt.Printf("disbursed %.2f Algos over %d rounds\n\n", disbursed, rounds)

	// 3. Algorithm 1 on the post-simulation stakes: the minimum reward and
	//    optimal (α, β, γ) that make cooperation a Nash equilibrium.
	live := &stake.Population{Stakes: weight.Snapshot(runner.Weights(), runner.Canonical().Round())}
	in, err := core.InputsFromPopulation(live, costs, core.Options{
		Committee: core.CommitteeConfig{TauProposer: 5, SStep: 100, Steps: 3, SFinal: 200},
	})
	if err != nil {
		return err
	}
	params, err := core.Minimize(in)
	if err != nil {
		return err
	}
	fmt.Println("== Algorithm 1: incentive-compatible reward ==")
	fmt.Printf("alpha=%.5f beta=%.5f gamma=%.5f\n", params.Alpha, params.Beta, params.Gamma)
	fmt.Printf("minimum per-round reward B = %.6f Algos (binding bound: %s)\n\n",
		params.MinB, params.Binding)

	// 4. Certify incentive compatibility: no unilateral deviation from the
	//    cooperative profile is profitable at this reward.
	if err := core.VerifyIncentiveCompatible(in, params); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	fmt.Println("verified: cooperation is a Nash equilibrium at B")

	// 5. ...and the Foundation's stake-proportional split is not
	//    incentive compatible at ANY reward (Theorem 2).
	g := core.BuildGame(in, params.B*1000)
	if ok, devs := g.IsNash(game.FoundationRule{}, g.AllC()); !ok {
		fmt.Printf("foundation split at 1000x the reward still admits: %s\n", devs[0])
	}
	_ = os.Stdout.Sync()
	return nil
}
