// Package protocol implements the Algorand BA* agreement protocol on top
// of the gossip network: block proposal with priority selection, the
// two-step Reduction phase, the BinaryBA* phase, the final-committee vote
// that distinguishes FINAL from TENTATIVE consensus, and the four node
// behaviours the paper defines (honest, honest-but-selfish, malicious,
// faulty).
package protocol

import (
	"errors"
	"math"
	"time"
)

// Params are the protocol constants of a simulation. Defaults follow the
// Algorand paper (Gilad et al., SOSP'17) scaled to simulator-sized
// networks; all are overridable per experiment.
type Params struct {
	// TauProposer is the expected stake selected as block proposers per
	// round (Algorand: 26).
	TauProposer float64
	// TauStep is the expected committee stake per BA* step.
	TauStep float64
	// TauFinal is the expected committee stake for the final vote.
	TauFinal float64
	// ThresholdStep is the fraction of TauStep votes required for a step
	// quorum (Algorand: 0.685).
	ThresholdStep float64
	// ThresholdFinal is the fraction of TauFinal required to declare a
	// block FINAL (Algorand: 0.74).
	ThresholdFinal float64
	// ProposalTimeout is how long nodes collect block proposals.
	ProposalTimeout time.Duration
	// StepTimeout is the per-step vote collection window (the paper quotes
	// a 20 second vote timeout; simulations compress it).
	StepTimeout time.Duration
	// MaxBinarySteps bounds the BinaryBA* phase (Algorand: 11 on average).
	MaxBinarySteps int
	// MaxTxPerBlock caps the transactions a proposer packs into a block.
	MaxTxPerBlock int
	// CatchUpProb is the per-round probability that a desynchronised node
	// successfully resynchronises from a healthy peer while the network is
	// strongly synchronous.
	CatchUpProb float64
	// AsyncProb is the per-round probability of a degraded (weakly
	// synchronous) round in which gossip delays inflate by AsyncFactor.
	AsyncProb float64
	// AsyncFactor multiplies gossip delays during degraded rounds.
	AsyncFactor float64
}

// DefaultParams returns the constants used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		TauProposer:     26,
		TauStep:         0.35, // fraction of total stake; resolved by Runner
		TauFinal:        0.45,
		ThresholdStep:   0.685,
		ThresholdFinal:  0.74,
		ProposalTimeout: 2 * time.Second,
		StepTimeout:     1 * time.Second,
		MaxBinarySteps:  11,
		MaxTxPerBlock:   64,
		CatchUpProb:     0.6,
		AsyncProb:       0.05,
		AsyncFactor:     8,
	}
}

// Validate reports configuration errors. Each check is written so that
// NaN fails it.
func (p Params) Validate() error {
	positiveFinite := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	switch {
	case !positiveFinite(p.TauProposer):
		return errors.New("protocol: TauProposer must be positive and finite")
	case !positiveFinite(p.TauStep):
		return errors.New("protocol: TauStep must be positive and finite")
	case !positiveFinite(p.TauFinal):
		return errors.New("protocol: TauFinal must be positive and finite")
	case !(p.ThresholdStep > 0.5 && p.ThresholdStep < 1):
		return errors.New("protocol: ThresholdStep must be in (0.5, 1)")
	case !(p.ThresholdFinal > 0.5 && p.ThresholdFinal < 1):
		return errors.New("protocol: ThresholdFinal must be in (0.5, 1)")
	case p.ProposalTimeout <= 0 || p.StepTimeout <= 0:
		return errors.New("protocol: timeouts must be positive")
	case p.MaxBinarySteps < 1:
		return errors.New("protocol: MaxBinarySteps must be >= 1")
	}
	return nil
}

// Behavior is a node's strategy type, following Sec. III-C of the paper.
type Behavior uint8

// The four behaviour classes.
const (
	// Honest nodes always cooperate, even at a loss (altruists).
	Honest Behavior = iota + 1
	// Selfish nodes are "honest but selfish": they cooperate only when the
	// reward exceeds the cost. In the Fig. 3 experiments selfish nodes have
	// concluded defection pays, so they stay online, run sortition (cost
	// c_so) and skip every other task.
	Selfish
	// Malicious nodes deviate arbitrarily: they vote for random values and
	// propose conflicting blocks.
	Malicious
	// Faulty nodes are offline (system malfunction, not by choice).
	Faulty
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Selfish:
		return "selfish"
	case Malicious:
		return "malicious"
	case Faulty:
		return "faulty"
	default:
		return "unknown"
	}
}

// Cooperates reports whether the behaviour performs protocol tasks.
func (b Behavior) Cooperates() bool { return b == Honest }

// Outcome is what a node extracted from a round's network messages —
// exactly the three series plotted in Fig. 3.
type Outcome uint8

// Possible per-node round outcomes.
const (
	// OutcomeNone: the node could not extract any block for the round.
	OutcomeNone Outcome = iota
	// OutcomeTentative: consensus reached but safety not yet guaranteed
	// (late BinaryBA* step, weak final quorum, or empty block).
	OutcomeTentative
	// OutcomeFinal: full final consensus on a block.
	OutcomeFinal
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeFinal:
		return "final"
	case OutcomeTentative:
		return "tentative"
	default:
		return "none"
	}
}
