package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// EquilibriumConfig parameterises the analytical-claims audit: on random
// role assignments it certifies Theorems 1–3 and Lemma 1–2 numerically.
type EquilibriumConfig struct {
	// Samples is the number of random games audited.
	Samples int
	// Leaders/Committee/Others are the group sizes per sampled game.
	Leaders, Committee, Others int
	// StakeDist draws player stakes.
	StakeDist stake.Distribution
	// Costs is the role-cost model.
	Costs game.RoleCosts
	Seed  int64
	// Workers bounds the audit pool's parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultEquilibriumConfig audits 50 random games with the paper's cost
// model.
func DefaultEquilibriumConfig() EquilibriumConfig {
	return EquilibriumConfig{
		Samples:   50,
		Leaders:   3,
		Committee: 8,
		Others:    30,
		StakeDist: stake.Uniform{A: 1, B: 200},
		Costs:     game.DefaultRoleCosts(),
		Seed:      1,
	}
}

// EquilibriumResult counts how often each analytical claim held.
type EquilibriumResult struct {
	Config EquilibriumConfig
	// Theorem1 counts games where All-D is a NE of GAl.
	Theorem1 int
	// Theorem2 counts games where All-C is NOT a NE of GAl.
	Theorem2 int
	// Lemma1 counts games where O never beats D.
	Lemma1 int
	// Theorem3 counts games where the cooperative profile is a NE of GAl+
	// at the Algorithm 1 reward.
	Theorem3 int
	// Tightness counts games where shaving the reward below the bound
	// breaks the equilibrium (the bound is tight).
	Tightness int
	// Failures lists human-readable descriptions of violated claims.
	Failures []string
}

// RunEquilibrium executes the audit.
func RunEquilibrium(cfg EquilibriumConfig) (*EquilibriumResult, error) {
	if cfg.Samples < 1 || cfg.Leaders < 2 || cfg.Committee < 1 || cfg.Others < 2 {
		return nil, errors.New("experiments: equilibrium audit needs >=1 sample, >=2 leaders, >=1 committee, >=2 others")
	}
	if cfg.StakeDist == nil {
		cfg.StakeDist = stake.Uniform{A: 1, B: 200}
	}
	type sampleAudit struct {
		theorem1, theorem2, lemma1, theorem3, tightness bool
		failures                                        []string
	}
	audits, err := runpool.Sweep(cfg.Samples, cfg.Workers, func(s int) (sampleAudit, error) {
		rng := sim.NewRNG(cfg.Seed+int64(s)*7919, "equilibrium")
		g, in, err := sampleGame(cfg, rng)
		if err != nil {
			return sampleAudit{}, fmt.Errorf("sample %d: %w", s, err)
		}
		foundation := game.FoundationRule{}
		var a sampleAudit

		// Theorem 1: All-D is a NE of GAl.
		if ok, _ := g.IsNash(foundation, g.AllD()); ok {
			a.theorem1 = true
		} else {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: All-D not NE under foundation", s))
		}
		// Theorem 2: All-C is not a NE of GAl.
		if ok, _ := g.IsNash(foundation, g.AllC()); !ok {
			a.theorem2 = true
		} else {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: All-C unexpectedly NE under foundation", s))
		}
		// Lemma 1: O is dominated by D.
		if dev := g.DominatedOffline(foundation, g.AllC()); dev == nil {
			a.lemma1 = true
		} else {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: lemma1 violated: %s", s, dev))
		}

		// Theorem 3 at the Algorithm 1 reward.
		params, err := core.Minimize(in)
		if err != nil {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: minimize: %v", s, err))
			return a, nil
		}
		g.B = params.B
		rule := game.RoleBasedRule{Alpha: params.Alpha, Beta: params.Beta}
		profile := g.Theorem3Profile()
		if ok, devs := g.IsNash(rule, profile); ok {
			a.theorem3 = true
		} else {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: theorem3 violated at B=%g: %s", s, params.B, devs[0]))
		}
		// Tightness: 50% of the bound must break cooperation.
		g.B = params.MinB * 0.5
		if ok, _ := g.IsNash(rule, profile); !ok {
			a.tightness = true
		} else {
			a.failures = append(a.failures, fmt.Sprintf("sample %d: bound not tight at B=%g", s, g.B))
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	res := runpool.Accumulate(audits, &EquilibriumResult{Config: cfg}, func(r *EquilibriumResult, a sampleAudit) *EquilibriumResult {
		boolToInt := func(b bool) int {
			if b {
				return 1
			}
			return 0
		}
		r.Theorem1 += boolToInt(a.theorem1)
		r.Theorem2 += boolToInt(a.theorem2)
		r.Lemma1 += boolToInt(a.lemma1)
		r.Theorem3 += boolToInt(a.theorem3)
		r.Tightness += boolToInt(a.tightness)
		r.Failures = append(r.Failures, a.failures...)
		return r
	})
	return res, nil
}

// sampleGame builds a random role assignment and the matching Algorithm 1
// inputs. Every "other" node is placed in the strong synchrony set so the
// Theorem 3 bound must protect all of them.
func sampleGame(cfg EquilibriumConfig, rng *rand.Rand) (*game.Game, core.Inputs, error) {
	players := make([]game.Player, 0, cfg.Leaders+cfg.Committee+cfg.Others)
	add := func(n int, role game.Role) {
		for i := 0; i < n; i++ {
			players = append(players, game.Player{
				ID: len(players), Role: role, Stake: cfg.StakeDist.Sample(rng), InSyncSet: role == game.RoleOther,
			})
		}
	}
	add(cfg.Leaders, game.RoleLeader)
	add(cfg.Committee, game.RoleCommittee)
	add(cfg.Others, game.RoleOther)
	g := &game.Game{Players: players, Costs: cfg.Costs, B: 1, QuorumFrac: 0.685}
	in, err := core.InputsFromGame(g)
	return g, in, err
}

// AllHold reports whether every claim held on every sample.
func (r *EquilibriumResult) AllHold() bool {
	n := r.Config.Samples
	return r.Theorem1 == n && r.Theorem2 == n && r.Lemma1 == n &&
		r.Theorem3 == n && r.Tightness == n
}

// WriteSummary prints the claim counts.
func (r *EquilibriumResult) WriteSummary(w io.Writer) error {
	n := r.Config.Samples
	_, err := fmt.Fprintf(w,
		"theorem1 (All-D NE, GAl):          %d/%d\n"+
			"theorem2 (All-C not NE, GAl):      %d/%d\n"+
			"lemma1   (O dominated by D):       %d/%d\n"+
			"theorem3 (coop NE, GAl+ at B*):    %d/%d\n"+
			"tightness (B*/2 breaks coop):      %d/%d\n",
		r.Theorem1, n, r.Theorem2, n, r.Lemma1, n, r.Theorem3, n, r.Tightness, n)
	if err != nil {
		return err
	}
	for _, f := range r.Failures {
		if _, err := fmt.Fprintln(w, "FAIL:", f); err != nil {
			return err
		}
	}
	return nil
}
