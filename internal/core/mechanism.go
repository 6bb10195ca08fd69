// Package core implements the paper's primary contribution: the
// incentive-compatible role-based reward sharing mechanism (Algorithm 1).
// Given the round's role-stake aggregates and the cost model, it computes
// the reward shares (α, β, γ) and the minimum per-round reward B_i such
// that the cooperative profile of Theorem 3 is a Nash equilibrium — no
// leader, committee member or strong-synchrony-set node can profit by
// unilaterally defecting.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/dsn2020-algorand/incentives/internal/game"
)

// Inputs are the quantities Algorithm 1 reads at the end of a round.
type Inputs struct {
	// SL, SM, SK are the total stakes of leaders, committee members and
	// remaining online nodes.
	SL, SM, SK float64
	// MinLeader, MinCommittee, MinOther are s*_l, s*_m and s*_k — the
	// minimum stakes within each group (for s*_k: within the strong
	// synchrony set Y).
	MinLeader, MinCommittee, MinOther float64
	// Costs is the per-role cost model.
	Costs game.RoleCosts
}

// Validate reports structurally invalid inputs.
func (in Inputs) Validate() error {
	switch {
	case in.SL <= 0 || in.SM <= 0 || in.SK <= 0:
		return errors.New("core: role stakes must be positive")
	case in.MinLeader <= 0 || in.MinLeader > in.SL:
		return fmt.Errorf("core: invalid s*_l = %g", in.MinLeader)
	case in.MinCommittee <= 0 || in.MinCommittee > in.SM:
		return fmt.Errorf("core: invalid s*_m = %g", in.MinCommittee)
	case in.MinOther <= 0 || in.MinOther > in.SK:
		return fmt.Errorf("core: invalid s*_k = %g", in.MinOther)
	}
	return in.Costs.Validate()
}

// SN returns the total stake S_N = S_L + S_M + S_K.
func (in Inputs) SN() float64 { return in.SL + in.SM + in.SK }

// Params is Algorithm 1's output: the reward split and the reward level.
type Params struct {
	Alpha float64
	Beta  float64
	Gamma float64
	// MinB is the infimum of feasible rewards (the Theorem 3 bound); any
	// B strictly above it sustains cooperation.
	MinB float64
	// B is the reward to disburse: MinB inflated by the safety margin.
	B float64
	// Binding names the bound that determines MinB: "leader", "committee"
	// or "others".
	Binding string
}

// Bounds evaluates the three Theorem 3 lower bounds on B_i for a given
// (α, β). Infeasible shares (violating Eq. 8/9) yield +Inf components.
func Bounds(in Inputs, alpha, beta float64) (leader, committee, others float64) {
	gamma := 1 - alpha - beta
	leader = math.Inf(1)
	committee = math.Inf(1)
	others = math.Inf(1)
	if alpha <= 0 || beta <= 0 || gamma <= 0 {
		return leader, committee, others
	}
	if d := alpha/in.SL - gamma/(in.SK+in.MinLeader); d > 0 {
		leader = (in.Costs.Leader - in.Costs.Sortition) / (d * in.MinLeader)
	}
	if d := beta/in.SM - gamma/(in.SK+in.MinCommittee); d > 0 {
		committee = (in.Costs.Committee - in.Costs.Sortition) / (d * in.MinCommittee)
	}
	others = (in.Costs.Other - in.Costs.Sortition) * in.SK / (in.MinOther * gamma)
	return leader, committee, others
}

// BoundB returns the overall Theorem 3 bound max(b_L, b_M, b_K) for the
// given shares, +Inf when infeasible. This is the surface plotted in
// Fig. 5.
func BoundB(in Inputs, alpha, beta float64) float64 {
	l, m, k := Bounds(in, alpha, beta)
	return math.Max(l, math.Max(m, k))
}

// ErrInfeasible is returned when no (α, β) satisfies the Theorem 3
// feasibility constraints.
var ErrInfeasible = errors.New("core: no feasible reward shares exist")

// defaultMargin is the relative safety margin applied above the strict
// Theorem 3 infimum so the published B satisfies the strict inequality.
const defaultMargin = 1e-9

// Minimize computes the (α, β) minimising the Theorem 3 bound in closed
// form and returns the resulting parameters.
//
// Derivation: for a fixed γ the leader and committee bounds are both
// decreasing in their own share, so the optimum spends all of 1−γ and
// equalises them at the common value
//
//	V(γ) = (S_L·A_L + S_M·A_M) / (1 − γ − γ·(S_L/(S_K+s*_l) + S_M/(S_K+s*_m)))
//
// with A_L = (c^L−c_so)/s*_l and A_M = (c^M−c_so)/s*_m. V is increasing in
// γ while the others bound b_K(γ) = (c^K−c_so)·S_K/(s*_k·γ) is decreasing,
// so the minimax sits at their crossing, located by bisection.
func Minimize(in Inputs) (Params, error) {
	if err := in.Validate(); err != nil {
		return Params{}, err
	}
	aL := (in.Costs.Leader - in.Costs.Sortition) / in.MinLeader
	aM := (in.Costs.Committee - in.Costs.Sortition) / in.MinCommittee
	kL := in.SL / (in.SK + in.MinLeader)
	kM := in.SM / (in.SK + in.MinCommittee)
	cK := (in.Costs.Other - in.Costs.Sortition) * in.SK / in.MinOther

	// Feasible γ keeps V's denominator positive.
	gammaMax := 1 / (1 + kL + kM)
	if gammaMax <= 0 {
		return Params{}, ErrInfeasible
	}
	num := in.SL*aL + in.SM*aM
	vOf := func(gamma float64) float64 {
		den := 1 - gamma*(1+kL+kM)
		if den <= 0 {
			return math.Inf(1)
		}
		return num / den
	}
	bKOf := func(gamma float64) float64 { return cK / gamma }

	// Bisect on f(γ) = V(γ) − b_K(γ): negative near 0, positive near
	// γ_max, monotone increasing.
	lo, hi := gammaMax*1e-12, gammaMax*(1-1e-12)
	if vOf(lo)-bKOf(lo) > 0 {
		// Others bound is never binding: push γ as small as the leader and
		// committee constraints allow; the minimum is at γ → 0 with
		// V(0) = num. (Does not occur with positive c^K − c_so, but guard.)
		gamma := lo
		return finishParams(in, gamma, vOf(gamma), aL, aM, kL, kM)
	}
	for iter := 0; iter < 200; iter++ {
		mid := 0.5 * (lo + hi)
		if vOf(mid) < bKOf(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	gamma := 0.5 * (lo + hi)
	minB := math.Max(vOf(gamma), bKOf(gamma))
	return finishParams(in, gamma, minB, aL, aM, kL, kM)
}

func finishParams(in Inputs, gamma, minB, aL, aM, kL, kM float64) (Params, error) {
	if math.IsInf(minB, 1) || minB <= 0 || gamma <= 0 || gamma >= 1 {
		return Params{}, ErrInfeasible
	}
	// Invert the equalisation: α = S_L(A_L/V + γ/(S_K+s*_l)), same for β.
	alpha := in.SL * (aL/minB + gamma/(in.SK+in.MinLeader))
	beta := in.SM * (aM/minB + gamma/(in.SK+in.MinCommittee))
	p := Params{
		Alpha: alpha,
		Beta:  beta,
		Gamma: 1 - alpha - beta,
		MinB:  minB,
		B:     minB * (1 + defaultMargin),
	}
	p.Binding = binding(Bounds(in, p.Alpha, p.Beta))
	if math.IsInf(BoundB(in, p.Alpha, p.Beta), 1) {
		return Params{}, ErrInfeasible
	}
	return p, nil
}

// GridMinimize scans an (α, β) grid with the given resolution and returns
// the best feasible point. It is the brute-force comparator for the
// closed-form optimiser (TestGridMinimizeAgreesWithAnalytic).
func GridMinimize(in Inputs, steps int) (Params, error) {
	if err := in.Validate(); err != nil {
		return Params{}, err
	}
	if steps < 2 {
		return Params{}, errors.New("core: grid needs at least 2 steps")
	}
	best := Params{MinB: math.Inf(1)}
	for i := 1; i < steps; i++ {
		alpha := float64(i) / float64(steps)
		for j := 1; j < steps-i; j++ {
			beta := float64(j) / float64(steps)
			b := BoundB(in, alpha, beta)
			if b < best.MinB {
				best = Params{
					Alpha: alpha,
					Beta:  beta,
					Gamma: 1 - alpha - beta,
					MinB:  b,
					B:     b * (1 + defaultMargin),
				}
			}
		}
	}
	if math.IsInf(best.MinB, 1) {
		return Params{}, ErrInfeasible
	}
	best.Binding = binding(Bounds(in, best.Alpha, best.Beta))
	return best, nil
}

// binding names the largest of the three Theorem 3 bounds, the one that
// sets B; ties go to "others", then "leader".
func binding(leader, committee, others float64) string {
	switch {
	case others >= leader && others >= committee:
		return "others"
	case leader >= committee:
		return "leader"
	default:
		return "committee"
	}
}
