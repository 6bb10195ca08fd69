// Package weight is the stake/weight oracle seam of the simulator: every
// consumer of sortition weights — the protocol runner's round-stake
// refresh, tau resolution, the adversary's stake-ranked target selectors,
// the experiment drivers and the CLIs — reads stake through an Oracle
// instead of touching the ledger's account table directly. Inverting the
// dependency makes the weight source pluggable: the ledger-direct backend
// reproduces today's reads bit-for-bit, the incremental index answers the
// same queries in O(changed accounts) per round, and the synthetic
// backends express stake shapes (heavy-tail Zipf, scheduled churn) that
// no fixed account vector can.
//
// A boundary test (TestNoDirectStakeReadsOutsideBackends) greps the tree
// so no direct Stake/StakesInto/TotalStake call creeps back in outside
// internal/ledger and this package.
package weight

import (
	"errors"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
)

// Oracle answers stake-weight queries for a simulated round. Rounds are
// 1-based ledger rounds; implementations backed by live state (the
// ledger backends) answer for the state's current round and treat the
// round argument as advisory, while schedule-driven backends (synthetic
// churn profiles) require the round sequence across calls to be
// non-decreasing — the protocol runner, which queries once per round in
// order, satisfies that by construction.
//
// Oracles are not safe for concurrent use; each run-pool worker's runner
// owns its own, like the sortition cache.
type Oracle interface {
	// NumNodes returns the population size the oracle answers for.
	NumNodes() int
	// Weight returns node's sortition weight (its stake in Algos) for
	// round; 0 for out-of-range nodes.
	Weight(round uint64, node int) float64
	// TotalWeight returns W, the network-wide weight for round — the
	// denominator of every sortition threshold.
	TotalWeight(round uint64) float64
	// WeightsInto fills dst with every node's weight for round, growing
	// dst as needed, and returns it; dst may be nil. This is the round
	// hot path: the runner refreshes one reusable buffer per round.
	WeightsInto(round uint64, dst []float64) []float64
}

// Snapshot returns a fresh copy of every node's weight for round.
func Snapshot(o Oracle, round uint64) []float64 {
	return o.WeightsInto(round, nil)
}

// Backend selects how a ledger-backed oracle answers queries; it is the
// protocol.Config knob for runs whose weights come from the canonical
// chain.
type Backend int

const (
	// BackendLedgerDirect reads the account table on every query —
	// bit-identical to the pre-oracle direct reads (the zero value, and
	// the default).
	BackendLedgerDirect Backend = iota
	// BackendIndexed maintains an incremental stake index (dense mirror +
	// Fenwick tree) updated by ledger mutation notifications, so per-round
	// refresh costs O(changed accounts) instead of O(accounts).
	BackendIndexed
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendLedgerDirect:
		return "ledger-direct"
	case BackendIndexed:
		return "indexed"
	default:
		return "unknown"
	}
}

// ErrBadBackend flags an unknown Backend value.
var ErrBadBackend = errors.New("weight: unknown backend")

// ForLedger builds the selected ledger-backed oracle over l.
func ForLedger(l *ledger.Ledger, b Backend) (Oracle, error) {
	switch b {
	case BackendLedgerDirect:
		return NewLedgerDirect(l), nil
	case BackendIndexed:
		return NewIndex(l), nil
	default:
		return nil, ErrBadBackend
	}
}

// LedgerDirect answers every query straight from the ledger's account
// table, exactly as the pre-oracle runner did: WeightsInto is
// ledger.StakesInto, TotalWeight is ledger.TotalStake. It is the default
// backend and the differential oracle the other backends are tested
// against; the golden figure tests pin its outputs bit-for-bit.
type LedgerDirect struct {
	l *ledger.Ledger
}

// NewLedgerDirect wraps l in the pass-through backend.
func NewLedgerDirect(l *ledger.Ledger) *LedgerDirect { return &LedgerDirect{l: l} }

var _ Oracle = (*LedgerDirect)(nil)

// NumNodes implements Oracle.
func (o *LedgerDirect) NumNodes() int { return o.l.NumAccounts() }

// Weight implements Oracle; the round argument is advisory (the ledger
// holds exactly its current round's stakes).
func (o *LedgerDirect) Weight(_ uint64, node int) float64 { return o.l.Stake(node) }

// TotalWeight implements Oracle.
func (o *LedgerDirect) TotalWeight(_ uint64) float64 { return o.l.TotalStake() }

// WeightsInto implements Oracle.
func (o *LedgerDirect) WeightsInto(_ uint64, dst []float64) []float64 {
	return o.l.StakesInto(dst)
}
