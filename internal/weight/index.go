package weight

import (
	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// Index is the incremental ledger backend: a dense stake mirror plus a
// running total, both patched in O(1) per account mutation by the
// ledger's stake observer. Refreshing a round's weights therefore costs
// O(changed accounts) ledger work instead of a full account-table walk,
// and TotalWeight is a running scalar.
//
// Determinism: per-node weights are assignment-mirrored (dense[id] = new
// balance), so Weight and WeightsInto are bit-identical to ledger-direct
// reads. The running total accumulates deltas, which can drift from an
// exact re-sum by float ulps as mutations pile up; it is therefore
// re-derived from dense every resumEvery mutations (an
// amortised-O(1) exact re-sum in the ledger's index order), bounding the
// drift a long stake-drift run can accumulate instead of letting
// sortition probabilities diverge without limit. The differential suite
// pins per-node weights exactly and totals to a 1e-9 relative band. In
// mutation-free runs the initial index-order sum is never re-accumulated,
// so Index is bit-identical throughout.
//
// An Index registers itself as l's stake observer. Installations are
// token-scoped: Detach releases only this index's installation
// (compare-and-clear), so detaching a stale index can never clobber an
// index installed after it.
type Index struct {
	l     *ledger.Ledger
	tok   ledger.ObserverToken
	dense []float64 // dense[id] mirrors account id's stake exactly
	total float64   // running sum of dense, exactly re-summed periodically
	// mutations counts observer deliveries since the last exact re-sum;
	// at resumEvery the total is rebuilt from dense.
	mutations  int
	resumEvery int
	// updates is the telemetry counter of observed mutations; nil (a
	// no-op) when the registry is disabled, resolved once at construction.
	updates *obs.Counter
}

var _ Oracle = (*Index)(nil)

// NewIndex snapshots l's account table into a fresh index and registers
// the index as l's stake observer so subsequent Credit/Append mutations
// patch it incrementally.
func NewIndex(l *ledger.Ledger) *Index {
	n := l.NumAccounts()
	x := &Index{
		l:     l,
		dense: l.StakesInto(make([]float64, 0, n)),
	}
	// Re-summing every max(1024, n) mutations keeps the exact rebuild
	// amortised O(1) per observed mutation while small indexes are not
	// rebuilt on every few writes.
	x.resumEvery = n
	if x.resumEvery < 1024 {
		x.resumEvery = 1024
	}
	// Initial total in index order — the same order TotalStake walks, so
	// the starting point is bit-identical to the ledger's own sum.
	for _, w := range x.dense {
		x.total += w
	}
	if m := obs.DefaultSim(); m != nil {
		x.updates = m.WeightIndexUpdate
	}
	x.tok = l.SetStakeObserver(x.observe)
	return x
}

// Detach unregisters the index from its ledger; the mirror stops
// tracking mutations from that point on. Only this index's own
// installation is released: if a later index already replaced it as the
// ledger's observer, Detach leaves the successor untouched.
func (x *Index) Detach() { x.l.ClearStakeObserver(x.tok) }

// observe is the ledger mutation hook: assignment-mirror the new balance
// and patch the running total by the delta.
func (x *Index) observe(id int, old, new float64) {
	x.dense[id] = new
	x.total += new - old
	x.mutations++
	x.updates.Add(1)
	if x.mutations >= x.resumEvery {
		x.resum()
	}
}

// resum re-derives the running total exactly from the dense mirror (in
// ledger index order, matching TotalStake's walk), zeroing the float
// drift the delta patches accumulate.
func (x *Index) resum() {
	x.mutations = 0
	var total float64
	for _, w := range x.dense {
		total += w
	}
	x.total = total
}

// NumNodes implements Oracle.
func (x *Index) NumNodes() int { return len(x.dense) }

// Weight implements Oracle; the round argument is advisory (the mirror
// tracks the ledger's current round).
func (x *Index) Weight(_ uint64, node int) float64 {
	if node < 0 || node >= len(x.dense) {
		return 0
	}
	return x.dense[node]
}

// TotalWeight implements Oracle.
func (x *Index) TotalWeight(_ uint64) float64 { return x.total }

// WeightsInto implements Oracle.
func (x *Index) WeightsInto(_ uint64, dst []float64) []float64 {
	dst = append(dst[:0], x.dense...)
	return dst
}
