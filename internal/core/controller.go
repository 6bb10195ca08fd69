package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// CommitteeConfig captures the sortition expectations the paper plugs
// into Algorithm 1 when roles are drawn per round: SL = τ_proposer
// expected leader stake; SM = SSTEP·Steps + SFINAL expected committee
// stake (the paper uses 1000·3 + 10000 = 13000).
type CommitteeConfig struct {
	TauProposer float64
	SStep       float64
	Steps       int
	SFinal      float64
}

// DefaultCommittee returns the paper's Sec. V-B constants.
func DefaultCommittee() CommitteeConfig {
	return CommitteeConfig{TauProposer: 26, SStep: 1000, Steps: 3, SFinal: 10_000}
}

// ExpectedSL returns the expected leader stake S_L.
func (c CommitteeConfig) ExpectedSL() float64 { return c.TauProposer }

// ExpectedSM returns the expected committee stake S_M.
func (c CommitteeConfig) ExpectedSM() float64 {
	return c.SStep*float64(c.Steps) + c.SFinal
}

// Options tune how InputsFromPopulation derives Algorithm 1's inputs.
type Options struct {
	// Committee supplies the expected role stakes; zero value means
	// DefaultCommittee.
	Committee CommitteeConfig
	// MinRoleStake is s*_l and s*_m, the minimum stake unit acting as a
	// leader or committee member (the paper's numerical analysis uses 1).
	MinRoleStake float64
	// OtherFloor implements the paper's "ignore strong synchrony sets
	// containing nodes with stakes less than w" rule: s*_k becomes the
	// smallest population stake >= OtherFloor. Zero keeps the true minimum.
	OtherFloor float64
}

func (o Options) withDefaults() Options {
	if o.Committee == (CommitteeConfig{}) {
		o.Committee = DefaultCommittee()
	}
	if o.MinRoleStake <= 0 {
		o.MinRoleStake = 1
	}
	return o
}

// InputsFromPopulation derives Algorithm 1's inputs for a stake
// population using sortition expectations for the role aggregates, the
// procedure of the paper's Sec. V-B evaluation.
func InputsFromPopulation(pop *stake.Population, costs game.RoleCosts, opts Options) (Inputs, error) {
	if pop == nil || pop.N() == 0 {
		return Inputs{}, errors.New("core: empty population")
	}
	opts = opts.withDefaults()
	sl := opts.Committee.ExpectedSL()
	sm := opts.Committee.ExpectedSM()
	sn := pop.Total()
	sk := sn - sl - sm
	if sk <= 0 {
		return Inputs{}, fmt.Errorf("core: population stake %g cannot cover committee expectations %g", sn, sl+sm)
	}
	// Zero-stake accounts cannot win sortition and hold no synchrony-set
	// duties, so s*_k is the smallest strictly positive stake (optionally
	// raised to the paper's floor).
	floor := opts.OtherFloor
	if floor <= 0 {
		floor = math.SmallestNonzeroFloat64
	}
	minOther := pop.MinAbove(floor)
	if minOther == 0 {
		return Inputs{}, fmt.Errorf("core: no stakes >= floor %g", floor)
	}
	return Inputs{
		SL:           sl,
		SM:           sm,
		SK:           sk,
		MinLeader:    opts.MinRoleStake,
		MinCommittee: opts.MinRoleStake,
		MinOther:     minOther,
		Costs:        costs,
	}, nil
}

// InputsFromGame derives Algorithm 1's inputs from a round game: the
// role stake totals, the minimum leader and committee stakes, and the
// minimum stake in the strong synchrony set as s*_k. It inverts
// BuildGame.
func InputsFromGame(g *game.Game) (Inputs, error) {
	t := g.Totals()
	in := Inputs{
		SL: t.SL, SM: t.SM, SK: t.SK,
		MinLeader: t.MinL, MinCommittee: t.MinM, MinOther: t.MinKSync,
		Costs: g.Costs,
	}
	if err := in.Validate(); err != nil {
		return Inputs{}, err
	}
	return in, nil
}

// ComputeParameters is Algorithm 1 end to end: derive the inputs from the
// population, then find the (α, β) minimising B_i under the Theorem 3
// bounds.
func ComputeParameters(pop *stake.Population, costs game.RoleCosts, opts Options) (Params, error) {
	in, err := InputsFromPopulation(pop, costs, opts)
	if err != nil {
		return Params{}, err
	}
	return Minimize(in)
}

// BuildGame materialises the stylised round game the parameters are meant
// to stabilise: nL leaders of stake s*_l, committee of stake s*_m units,
// and the population as other online nodes, all inside the strong
// synchrony set. It is used by VerifyIncentiveCompatible and the tests.
func BuildGame(in Inputs, b float64) *game.Game {
	players := make([]game.Player, 0, 8)
	id := 0
	add := func(role game.Role, stakes []float64, inSync bool) {
		for _, s := range stakes {
			players = append(players, game.Player{ID: id, Role: role, Stake: s, InSyncSet: inSync})
			id++
		}
	}
	// Two leaders (Theorems require nL > 1): the minimum-stake one plus the
	// rest of S_L.
	add(game.RoleLeader, []float64{in.MinLeader, in.SL - in.MinLeader}, false)
	// Two committee members likewise.
	add(game.RoleCommittee, []float64{in.MinCommittee, in.SM - in.MinCommittee}, false)
	// Others: the pivotal minimum-stake sync-set member, a second sync-set
	// node, and the remaining bulk outside Y.
	rest := in.SK - in.MinOther
	bulkSync := rest * 0.5
	add(game.RoleOther, []float64{in.MinOther, bulkSync}, true)
	add(game.RoleOther, []float64{rest - bulkSync}, false)
	return &game.Game{
		Players:    players,
		Costs:      in.Costs,
		B:          b,
		QuorumFrac: 0.685,
	}
}

// VerifyIncentiveCompatible certifies that with reward p.B the Theorem 3
// cooperative profile is a Nash equilibrium of the induced game, and that
// with any reward strictly below MinB it is not. It returns an error
// describing the first profitable deviation found.
func VerifyIncentiveCompatible(in Inputs, p Params) error {
	g := BuildGame(in, p.B)
	rule := game.RoleBasedRule{Alpha: p.Alpha, Beta: p.Beta}
	profile := g.Theorem3Profile()
	if ok, devs := g.IsNash(rule, profile); !ok {
		return fmt.Errorf("core: B=%g admits deviation %s", p.B, devs[0])
	}
	return nil
}

// Controller recomputes Algorithm 1 each round and tracks the disbursed
// totals, letting the Foundation "adapt rewards to the status of the
// network" as the paper suggests.
type Controller struct {
	costs game.RoleCosts
	opts  Options

	history []Params
	total   float64
}

// NewController builds an adaptive reward controller.
func NewController(costs game.RoleCosts, opts Options) *Controller {
	return &Controller{costs: costs, opts: opts.withDefaults()}
}

// Step computes the round's parameters from the current stake population
// and accumulates the disbursed total.
func (c *Controller) Step(pop *stake.Population) (Params, error) {
	p, err := ComputeParameters(pop, c.costs, c.opts)
	if err != nil {
		return Params{}, err
	}
	c.history = append(c.history, p)
	c.total += p.B
	return p, nil
}

// TotalDisbursed returns the Algos paid out so far.
func (c *Controller) TotalDisbursed() float64 { return c.total }

// History returns the per-round parameters computed so far.
func (c *Controller) History() []Params {
	out := make([]Params, len(c.history))
	copy(out, c.history)
	return out
}
