// Package evolution studies the repeated-round dynamics that the paper's
// one-shot analysis motivates: a population of honest-but-selfish nodes
// that, when they reconsider, play a myopic best response — "cooperate if
// and only if the reward is more than the cost" (the paper's definition
// of selfishness). Strategies are conditioned on the role a node holds
// when it revises, since Algorand resamples roles every round.
//
// The headline contrast: under the role-based split with the Algorithm 1
// reward, the paid roles stay fully cooperative for as long as the chain
// lives (the α/β premiums are strict), whereas under the Foundation's
// role-blind split the leader and committee dispositions erode from the
// first round. Both schemes share one fragility the one-shot analysis
// hides: cooperation of the unpaid "others" is sustained only by
// knife-edge pivotality inside the strong synchrony set, so the commons
// erodes to the synchrony threshold and eventually tips the network into
// the Fig. 3 collapse. This quantifies why the paper's conclusion calls
// for the Foundation to keep adapting rewards to the network state.
package evolution

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// SchemeKind selects the reward rule driving the dynamics.
type SchemeKind uint8

// The two competing schemes.
const (
	// SchemeFoundation pays a fixed per-round reward, stake-proportional
	// and role-blind (20 Algos, the period-1 schedule).
	SchemeFoundation SchemeKind = iota + 1
	// SchemeRoleBased recomputes Algorithm 1 every round on the realised
	// roles and pays (α, β, γ) role pools.
	SchemeRoleBased
)

// String implements fmt.Stringer.
func (s SchemeKind) String() string {
	switch s {
	case SchemeFoundation:
		return "foundation"
	case SchemeRoleBased:
		return "role-based"
	default:
		return "unknown"
	}
}

// Config parameterises one evolutionary run.
type Config struct {
	// Nodes is the population size.
	Nodes int
	// Dist draws node stakes.
	Dist stake.Distribution
	// Costs is the role-cost model.
	Costs game.RoleCosts
	// Scheme selects the reward rule.
	Scheme SchemeKind
	// FoundationReward is the fixed per-round reward under
	// SchemeFoundation (the role-based scheme computes its own).
	FoundationReward float64
	// Rounds is the number of simulated revision rounds.
	Rounds int
	// InitialDefection is the starting per-role defection probability.
	InitialDefection float64
	// RevisionRate is the fraction of nodes revising per round. Revisions
	// are applied sequentially in random order (asynchronous best-response
	// dynamics), so revisers see the effect of earlier revisions.
	RevisionRate float64
	// Noise is the probability that a revising node picks a random
	// strategy instead of its best response (exploration / trembles).
	Noise float64
	// LeadersPerRound / CommitteePerRound are the stake-weighted role
	// draws per round.
	LeadersPerRound, CommitteePerRound int
	// SyncSetFrac is the fraction of "other" nodes whose relaying the
	// round depends on (the strong synchrony set Y).
	SyncSetFrac float64
	// SyncThreshold is the cooperating fraction of Y needed for strong
	// synchrony (Definition 2's "most honest nodes, e.g. 95%").
	SyncThreshold float64
	// QuorumFrac is the committee-stake quorum (BA* threshold).
	QuorumFrac float64
	// SafetyMargin inflates the Algorithm 1 reward above its strict
	// infimum: B = (1 + SafetyMargin) · B*. The theorem only needs any
	// B > B*, and a real operator pays a margin so that incentives stay
	// strict when defectors inflate the γ-pool denominator.
	SafetyMargin float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a 300-node population with the paper's constants.
func DefaultConfig(scheme SchemeKind) Config {
	return Config{
		Nodes:             300,
		Dist:              stake.Uniform{A: 1, B: 200},
		Costs:             game.DefaultRoleCosts(),
		Scheme:            scheme,
		FoundationReward:  20,
		Rounds:            150,
		InitialDefection:  0,
		RevisionRate:      0.20,
		Noise:             0,
		LeadersPerRound:   3,
		CommitteePerRound: 20,
		SyncSetFrac:       0.5,
		SyncThreshold:     0.95,
		QuorumFrac:        0.685,
		SafetyMargin:      0.5,
		Seed:              1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 10:
		return errors.New("evolution: need at least 10 nodes")
	case c.Dist == nil:
		return errors.New("evolution: nil stake distribution")
	case c.Rounds < 1:
		return errors.New("evolution: need at least one round")
	case c.InitialDefection < 0 || c.InitialDefection > 1:
		return errors.New("evolution: initial defection out of [0,1]")
	case c.RevisionRate <= 0 || c.RevisionRate > 1:
		return errors.New("evolution: revision rate out of (0,1]")
	case c.Noise < 0 || c.Noise > 1:
		return errors.New("evolution: noise out of [0,1]")
	case c.LeadersPerRound < 1 || c.CommitteePerRound < 1:
		return errors.New("evolution: need at least one leader and committee member")
	case c.LeadersPerRound+c.CommitteePerRound >= c.Nodes:
		return errors.New("evolution: role draws exceed population")
	case c.SyncSetFrac <= 0 || c.SyncSetFrac > 1:
		return errors.New("evolution: sync-set fraction out of (0,1]")
	case c.SyncThreshold <= 0 || c.SyncThreshold > 1:
		return errors.New("evolution: sync threshold out of (0,1]")
	case c.QuorumFrac <= 0 || c.QuorumFrac > 1:
		return errors.New("evolution: quorum out of (0,1]")
	case c.SafetyMargin < 0:
		return errors.New("evolution: negative safety margin")
	case c.Scheme != SchemeFoundation && c.Scheme != SchemeRoleBased:
		return fmt.Errorf("evolution: unknown scheme %d", c.Scheme)
	}
	if c.Scheme == SchemeFoundation && c.FoundationReward <= 0 {
		return errors.New("evolution: foundation reward must be positive")
	}
	return c.Costs.Validate()
}

// RoundStats is one round's aggregate state.
type RoundStats struct {
	Round          int
	CoopAll        float64 // cooperating fraction of all nodes (in-role)
	CoopLeaders    float64 // cooperating fraction among this round's leaders
	CoopCommittee  float64
	CoopSyncSet    float64
	BlockProduced  bool
	RewardB        float64 // reward disbursed this round (0 if no block)
	MeanPayoffCoop float64
	MeanPayoffDef  float64
	// StratLeaders / StratCommittee / StratOthers are the population-wide
	// fractions of nodes whose strategy table says "cooperate" for each
	// role — the learned dispositions, independent of this round's draws.
	StratLeaders   float64
	StratCommittee float64
	StratOthers    float64
}

// Result is the full trajectory.
type Result struct {
	Config Config
	Stats  []RoundStats
}

// FinalCoop returns the mean cooperating fraction over the last quarter
// of the run.
func (r *Result) FinalCoop() float64 {
	start := len(r.Stats) * 3 / 4
	sum := 0.0
	for _, s := range r.Stats[start:] {
		sum += s.CoopAll
	}
	return sum / float64(len(r.Stats)-start)
}

// FinalRoleCoop returns the mean cooperating fractions of leaders and
// committee members over the last quarter of the run.
func (r *Result) FinalRoleCoop() (leaders, committee float64) {
	start := len(r.Stats) * 3 / 4
	n := 0.0
	for _, s := range r.Stats[start:] {
		leaders += s.CoopLeaders
		committee += s.CoopCommittee
		n++
	}
	return leaders / n, committee / n
}

// BlockRate returns the fraction of rounds that produced a block.
func (r *Result) BlockRate() float64 {
	produced := 0
	for _, s := range r.Stats {
		if s.BlockProduced {
			produced++
		}
	}
	return float64(produced) / float64(len(r.Stats))
}

// SurvivalRounds returns the number of rounds before the first failed
// round (the producing prefix length); len(Stats) if no round failed.
func (r *Result) SurvivalRounds() int {
	for i, s := range r.Stats {
		if !s.BlockProduced {
			return i
		}
	}
	return len(r.Stats)
}

// PrefixStratCoop returns the mean learned cooperation dispositions for
// leaders and committee members over the producing prefix (or the first
// round if the very first round failed).
func (r *Result) PrefixStratCoop() (leaders, committee float64) {
	n := r.SurvivalRounds()
	if n == 0 {
		n = 1
	}
	for _, s := range r.Stats[:n] {
		leaders += s.StratLeaders
		committee += s.StratCommittee
	}
	return leaders / float64(n), committee / float64(n)
}

// roleIdx maps a role to the strategy-table index.
func roleIdx(r game.Role) int {
	switch r {
	case game.RoleLeader:
		return 0
	case game.RoleCommittee:
		return 1
	default:
		return 2
	}
}

// Run executes the dynamics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed, "evolution")
	pop, err := stake.SamplePopulation(cfg.Dist, cfg.Nodes, rng)
	if err != nil {
		return nil, err
	}
	// The population never changes, so one prefix sampler serves every
	// round's role draws.
	sampler := stake.NewWeightedSampler(pop)
	if sampler == nil {
		return nil, errors.New("evolution: population holds no stake")
	}

	// strat[i][r] is whether node i cooperates when holding role r.
	strat := make([][3]bool, cfg.Nodes)
	for i := range strat {
		for r := 0; r < 3; r++ {
			strat[i][r] = rng.Float64() >= cfg.InitialDefection
		}
	}

	// The strong synchrony set is structural (who the gossip topology
	// depends on), so membership is drawn once per run, not per round.
	inSync := make([]bool, cfg.Nodes)
	for i := range inSync {
		inSync[i] = rng.Float64() < cfg.SyncSetFrac
	}

	res := &Result{Config: cfg, Stats: make([]RoundStats, 0, cfg.Rounds)}
	for round := 0; round < cfg.Rounds; round++ {
		stats := playRound(cfg, pop, sampler, strat, inSync, rng)
		stats.Round = round + 1
		var sl, sm, sk int
		for i := range strat {
			if strat[i][0] {
				sl++
			}
			if strat[i][1] {
				sm++
			}
			if strat[i][2] {
				sk++
			}
		}
		stats.StratLeaders = float64(sl) / float64(cfg.Nodes)
		stats.StratCommittee = float64(sm) / float64(cfg.Nodes)
		stats.StratOthers = float64(sk) / float64(cfg.Nodes)
		res.Stats = append(res.Stats, stats)
	}
	return res, nil
}

// roundState carries one round's realised roles and aggregates; payoff
// counterfactuals and sequential revisions mutate it incrementally.
type roundState struct {
	cfg    Config
	pop    *stake.Population
	role   []game.Role
	inSync []bool
	coop   []bool
	tally

	sl, sm, sk       float64 // role stake totals (fixed)
	syncTotal        int
	b                float64
	rule             game.RewardRule
	minL, minM, minK float64
}

// tally is the part of a round's state that one strategy change moves.
type tally struct {
	leadersC, syncC int // cooperating leaders and sync-set members
	// Pool stakes: cooperating leaders, cooperating committee members
	// (the quorum's stake) and everyone else (others plus defecting L/M).
	effSL, effSM, effSK float64
}

// flip returns the tally with node i's strategy set to c.
func (st *roundState) flip(i int, c bool) tally {
	t := st.tally
	if c == st.coop[i] {
		return t
	}
	one, s := 1, st.pop.Stakes[i]
	if !c {
		one, s = -1, -s
	}
	switch st.role[i] {
	case game.RoleLeader:
		t.leadersC += one
		t.effSL, t.effSK = t.effSL+s, t.effSK-s
	case game.RoleCommittee:
		t.effSM, t.effSK = t.effSM+s, t.effSK-s
	}
	// Synchrony-set membership is orthogonal to the round's role: every
	// member relays, so its cooperation counts towards strong synchrony
	// whatever role it drew.
	if st.inSync[i] {
		t.syncC += one
	}
	return t
}

// produced evaluates the block predicate on a tally.
func (st *roundState) produced(t tally) bool {
	return t.leadersC > 0 && t.effSM >= st.cfg.QuorumFrac*st.sm &&
		(st.syncTotal == 0 || float64(t.syncC) >= st.cfg.SyncThreshold*float64(st.syncTotal))
}

// payoffIf evaluates node i's utility for strategy c against the current
// profile.
func (st *roundState) payoffIf(i int, c bool) float64 {
	cost := st.cfg.Costs.Sortition
	if c {
		cost = st.cfg.Costs.ForRole(st.role[i])
	}
	t := st.flip(i, c)
	if st.b <= 0 || !st.produced(t) {
		return -cost
	}
	rl, rm, rk := st.rule.Rates(st.b, t.effSL, t.effSM, t.effSK)
	rate := rk
	switch {
	case c && st.role[i] == game.RoleLeader:
		rate = rl
	case c && st.role[i] == game.RoleCommittee:
		rate = rm
	}
	return rate*st.pop.Stakes[i] - cost
}

// apply sets node i's strategy to c.
func (st *roundState) apply(i int, c bool) {
	st.tally = st.flip(i, c)
	st.coop[i] = c
}

// playRound samples roles, evaluates the round, records stats and applies
// asynchronous best-response revisions to the role-conditional strategy
// table.
func playRound(cfg Config, pop *stake.Population, sampler *stake.WeightedSampler, strat [][3]bool, inSync []bool, rng *rand.Rand) RoundStats {
	n := cfg.Nodes
	st := &roundState{
		cfg:    cfg,
		pop:    pop,
		role:   make([]game.Role, n),
		inSync: make([]bool, n),
		coop:   make([]bool, n),
	}
	for i := range st.role {
		st.role[i] = game.RoleOther
	}
	drawn := make(map[int]struct{}, cfg.LeadersPerRound+cfg.CommitteePerRound)
	draw := func(count int, r game.Role) {
		for picked := 0; picked < count; {
			i := sampler.Sample(rng)
			if _, dup := drawn[i]; dup {
				continue
			}
			drawn[i] = struct{}{}
			st.role[i] = r
			picked++
		}
	}
	draw(cfg.LeadersPerRound, game.RoleLeader)
	draw(cfg.CommitteePerRound, game.RoleCommittee)

	minStake := func(cur, s float64) float64 {
		if cur == 0 || s < cur {
			return s
		}
		return cur
	}
	var nL, nM, nMCoop int
	for i := 0; i < n; i++ {
		s := pop.Stakes[i]
		st.coop[i] = strat[i][roleIdx(st.role[i])]
		if inSync[i] {
			st.inSync[i] = true
			st.syncTotal++
			if st.coop[i] {
				st.syncC++
			}
		}
		switch st.role[i] {
		case game.RoleLeader:
			st.sl += s
			st.minL = minStake(st.minL, s)
			nL++
			if st.coop[i] {
				st.leadersC++
				st.effSL += s
			} else {
				st.effSK += s
			}
		case game.RoleCommittee:
			st.sm += s
			st.minM = minStake(st.minM, s)
			nM++
			if st.coop[i] {
				st.effSM += s
				nMCoop++
			} else {
				st.effSK += s
			}
		default:
			st.sk += s
			st.effSK += s
			if inSync[i] {
				st.minK = minStake(st.minK, s)
			}
		}
	}

	// Reward level and split.
	switch cfg.Scheme {
	case SchemeFoundation:
		st.b = cfg.FoundationReward
		st.rule = game.FoundationRule{}
	case SchemeRoleBased:
		in := core.Inputs{
			SL: st.sl, SM: st.sm, SK: st.sk,
			MinLeader: st.minL, MinCommittee: st.minM, MinOther: st.minK,
			Costs: cfg.Costs,
		}
		if st.minK == 0 {
			in.MinOther = pop.Min()
			if in.MinOther <= 0 {
				in.MinOther = 1
			}
		}
		if params, err := core.Minimize(in); err == nil {
			st.b = params.B * (1 + cfg.SafetyMargin)
			st.rule = game.RoleBasedRule{Alpha: params.Alpha, Beta: params.Beta}
		}
	}

	produced := st.produced(st.tally)
	var coopSum, defSum float64
	var coopN, defN int
	for i := 0; i < n; i++ {
		u := st.payoffIf(i, st.coop[i])
		if st.coop[i] {
			coopSum += u
			coopN++
		} else {
			defSum += u
			defN++
		}
	}

	stats := RoundStats{
		CoopAll:       float64(coopN) / float64(n),
		BlockProduced: produced,
	}
	if produced {
		stats.RewardB = st.b
	}
	if nL > 0 {
		stats.CoopLeaders = float64(st.leadersC) / float64(nL)
	}
	if nM > 0 {
		stats.CoopCommittee = float64(nMCoop) / float64(nM)
	}
	if st.syncTotal > 0 {
		stats.CoopSyncSet = float64(st.syncC) / float64(st.syncTotal)
	}
	if coopN > 0 {
		stats.MeanPayoffCoop = coopSum / float64(coopN)
	}
	if defN > 0 {
		stats.MeanPayoffDef = defSum / float64(defN)
	}

	// Asynchronous best-response revision: revisers act one at a time in
	// random order and see earlier revisions, which lets populations hover
	// at pivotality boundaries instead of overshooting them.
	for _, i := range rng.Perm(n) {
		if rng.Float64() >= cfg.RevisionRate {
			continue
		}
		var choice bool
		if rng.Float64() < cfg.Noise {
			choice = rng.Float64() < 0.5
		} else {
			uC := st.payoffIf(i, true)
			uD := st.payoffIf(i, false)
			choice = uC > uD
		}
		st.apply(i, choice)
		strat[i][roleIdx(st.role[i])] = choice
	}
	return stats
}
