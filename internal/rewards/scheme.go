package rewards

import (
	"errors"
	"fmt"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

// Share is one node's slice of a round's reward.
type Share struct {
	ID     int
	Amount float64
}

// ErrNoParticipants is returned when a round has nobody to pay.
var ErrNoParticipants = errors.New("rewards: no participants to reward")

// Distribute splits the round reward b over the realised round roles
// under rule: leaders are paid r^L, committee members r^M and the other
// online nodes r^K per unit of stake (see game.RewardRule). It returns
// one share per participant, leaders first, then committee, then others.
// The payouts sum to b (up to rounding).
func Distribute(rule game.RewardRule, b float64, roles protocol.RoundRoles) ([]Share, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if b < 0 {
		return nil, fmt.Errorf("rewards: negative reward %g", b)
	}
	sl, sm, sk := stakeOf(roles.Leaders), stakeOf(roles.Committee), stakeOf(roles.Others)
	if sl+sm+sk <= 0 {
		return nil, ErrNoParticipants
	}
	rl, rm, rk := rule.Rates(b, sl, sm, sk)
	shares := make([]Share, 0, len(roles.Leaders)+len(roles.Committee)+len(roles.Others))
	pay := func(rate float64, group []protocol.RoleStake) {
		for _, rs := range group {
			shares = append(shares, Share{ID: rs.ID, Amount: rate * rs.Stake})
		}
	}
	pay(rl, roles.Leaders)
	pay(rm, roles.Committee)
	pay(rk, roles.Others)
	return shares, nil
}

func stakeOf(group []protocol.RoleStake) float64 {
	t := 0.0
	for _, rs := range group {
		t += rs.Stake
	}
	return t
}

// TotalOf sums the amounts of a share list.
func TotalOf(shares []Share) float64 {
	t := 0.0
	for _, s := range shares {
		t += s.Amount
	}
	return t
}
