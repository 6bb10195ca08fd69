package rewards_test

import (
	"fmt"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/rewards"
)

// ExampleSchedule_RoundReward reads Table III: period 1 disburses 10M
// Algos over 500k blocks, i.e. 20 Algos per round.
func ExampleSchedule_RoundReward() {
	var s rewards.Schedule
	for _, round := range []uint64{1, 500_001, 5_500_001} {
		r, err := s.RoundReward(round)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("round %7d: %.0f Algos\n", round, r)
	}
	// Output:
	// round       1: 20 Algos
	// round  500001: 26 Algos
	// round 5500001: 76 Algos
}

// ExampleDistribute splits a 100-Algo round reward with
// (α, β) = (0.2, 0.3): 20 to the leaders, 30 to the committee, 50 to the
// other online nodes, each pool by stake.
func ExampleDistribute() {
	roles := protocol.RoundRoles{
		Leaders:   []protocol.RoleStake{{ID: 0, Stake: 30}},
		Committee: []protocol.RoleStake{{ID: 1, Stake: 10}, {ID: 2, Stake: 40}},
		Others:    []protocol.RoleStake{{ID: 3, Stake: 100}},
	}
	shares, err := rewards.Distribute(game.RoleBasedRule{Alpha: 0.2, Beta: 0.3}, 100, roles)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range shares {
		fmt.Printf("node %d: %.0f Algos\n", s.ID, s.Amount)
	}
	// Output:
	// node 0: 20 Algos
	// node 1: 6 Algos
	// node 2: 24 Algos
	// node 3: 50 Algos
}
