package game

import "fmt"

// RewardRule is the repository's one reward split. The two
// implementations are the Foundation's stake-proportional split (Eq. 3,
// game GAl) and the paper's role-based split (Eq. 5, game GAl+). The
// payoff game (Game.Payout), the per-round disbursement over a simulated
// round's roles (rewards.Distribute) and the evolution dynamics all price
// through it.
//
// Neither scheme punishes defectors: a defecting node stays online and
// still collects whatever its effective group is owed — the root of the
// free-rider problem Theorem 2 formalises.
type RewardRule interface {
	// Name identifies the rule in experiment output.
	Name() string
	// Rates returns the paper's r^L, r^M and r^K: the reward per unit of
	// stake paid to the leaders, the committee members and the remaining
	// online nodes when b is split over group stakes sl, sm and sk.
	Rates(b, sl, sm, sk float64) (rl, rm, rk float64)
	// Validate reports parameters the rule cannot price with.
	Validate() error
}

// FoundationRule is the Algorand Foundation proposal: the round reward B
// is split among all online nodes proportionally to stake, irrespective
// of role (r^L = r^M = r^K = B / S_N).
type FoundationRule struct{}

var _ RewardRule = FoundationRule{}

// Name implements RewardRule.
func (FoundationRule) Name() string { return "foundation" }

// Rates implements RewardRule.
func (FoundationRule) Rates(b, sl, sm, sk float64) (rl, rm, rk float64) {
	r := perStake(b, sl+sm+sk)
	return r, r, r
}

// Validate implements RewardRule; the Foundation split has no parameters.
func (FoundationRule) Validate() error { return nil }

// RoleBasedRule is the paper's mechanism: αB to the cooperating leaders,
// βB to the cooperating committee members, γB = (1−α−β)B to the remaining
// online nodes, each pool split proportionally to stake within its group.
// A defecting leader or committee member ignores its role and is treated
// as an ordinary online node, exactly as in the Lemma 2 deviation payoffs
// (it earns from the γ pool, whose stake base grows by its own stake).
//
// The split conserves value: an empty α or β group's pool goes to γ, and
// with no other online node γ goes to β, or to α when β is empty too.
type RoleBasedRule struct {
	Alpha, Beta float64
}

var _ RewardRule = RoleBasedRule{}

// Name implements RewardRule.
func (r RoleBasedRule) Name() string { return "role-based" }

// Gamma returns 1 − α − β.
func (r RoleBasedRule) Gamma() float64 { return 1 - r.Alpha - r.Beta }

// Validate checks 0 < α, β and α + β < 1.
func (r RoleBasedRule) Validate() error {
	if r.Alpha <= 0 || r.Beta <= 0 || r.Alpha+r.Beta >= 1 {
		return fmt.Errorf("game: invalid shares α=%g β=%g", r.Alpha, r.Beta)
	}
	return nil
}

// Rates implements RewardRule.
func (r RoleBasedRule) Rates(b, sl, sm, sk float64) (rl, rm, rk float64) {
	alpha, beta, gamma := r.Alpha*b, r.Beta*b, r.Gamma()*b
	if sl <= 0 {
		alpha, gamma = 0, gamma+alpha
	}
	if sm <= 0 {
		beta, gamma = 0, gamma+beta
	}
	if sk <= 0 {
		if sm > 0 {
			beta += gamma
		} else {
			alpha += gamma
		}
		gamma = 0
	}
	return perStake(alpha, sl), perStake(beta, sm), perStake(gamma, sk)
}

// perStake is a pool's reward per unit of stake; nothing for an empty
// group.
func perStake(pool, stake float64) float64 {
	if stake <= 0 {
		return 0
	}
	return pool / stake
}

// Payout returns each player's reward under the rule: zero everywhere
// when no block was produced, otherwise the rate of the player's
// effective role times its stake.
func (g *Game) Payout(rule RewardRule, profile Profile, produced bool) []float64 {
	out := make([]float64, len(g.Players))
	if !produced {
		return out
	}
	// Indexed by Role; index 0 holds the offline players, paid nothing.
	var stakes, rates [RoleOther + 1]float64
	for i, p := range g.Players {
		stakes[effectiveRole(p, profile[i])] += p.Stake
	}
	rates[RoleLeader], rates[RoleCommittee], rates[RoleOther] =
		rule.Rates(g.B, stakes[RoleLeader], stakes[RoleCommittee], stakes[RoleOther])
	for i, p := range g.Players {
		out[i] = rates[effectiveRole(p, profile[i])] * p.Stake
	}
	return out
}

// effectiveRole is the group a player is paid in: its assigned role when
// cooperating (any role but leader or committee counts as "other", as in
// Totals), the "others" pool when defecting, nothing when offline.
func effectiveRole(p Player, s Strategy) Role {
	switch {
	case s == Cooperate && (p.Role == RoleLeader || p.Role == RoleCommittee):
		return p.Role
	case s == Cooperate || s == Defect:
		return RoleOther
	default:
		return 0 // offline: excluded from every pool
	}
}

// StrategyCost is what the strategy costs a player of the given role:
// cooperation costs the full role cost; defection and offline still pay
// the sortition cost c_so needed to join the network.
func (g *Game) StrategyCost(p Player, s Strategy) float64 {
	if s == Cooperate {
		return g.Costs.ForRole(p.Role)
	}
	return g.Costs.Sortition
}

// Payoffs evaluates every player's utility under the profile and rule:
// reward (if a block is produced) minus the strategy's cost.
func (g *Game) Payoffs(rule RewardRule, profile Profile) []float64 {
	rewards := g.Payout(rule, profile, g.BlockProduced(profile))
	out := make([]float64, len(g.Players))
	for i, p := range g.Players {
		out[i] = rewards[i] - g.StrategyCost(p, profile[i])
	}
	return out
}

// PayoffOf evaluates a single player's utility under the profile.
func (g *Game) PayoffOf(rule RewardRule, profile Profile, i int) float64 {
	rewards := g.Payout(rule, profile, g.BlockProduced(profile))
	return rewards[i] - g.StrategyCost(g.Players[i], profile[i])
}
