package protocol

import (
	"encoding/binary"
	"slices"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
)

// tallyEntry is one accumulated vote value in a stepTally.
type tallyEntry struct {
	live bool
	key  ledger.Hash
	w    float64
}

// stepTally accumulates weighted votes for one (round, step). The
// per-value weights live in a small open-addressed array probed on the
// hash's 8-byte prefix: a step sees tens of distinct values at most (in
// reduction step 1 each committee member votes for the best proposal it
// has seen, so a tally holds up to one value per live proposal plus the
// empty hash; later steps carry far fewer), so the array replaces the
// map[Hash]float64 the profile flagged at ~5-8% of round CPU — no
// per-lookup hashing of 32-byte keys and no map rebuild churn. Slots are
// scanned in index order for leader selection, which stays deterministic
// because the (weight, hashLess) comparison is a total order.
//
// Each committee member counts once per step. A vote message reaches a
// node at most once (network de-duplication on the dense path, one
// mean-field copy per receiver on the sparse path), so only a voter that
// equivocates, gossiping several votes under distinct message IDs, can
// reach one tally twice. Its votes arrive flagged equivocal and are
// checked against a voter set allocated on the first such vote; the
// first to arrive counts.
//
// That rule is the only one arrival order reaches. Weights are whole
// seat counts, so sums are exact in any order, and a tally's slot
// layout, which follows the order values first arrive in, is invisible
// to leader and evaluateBinaryTally. The sparse path relies on this: a
// plain vote reaches a receiver as part of a per-window seat sum, which
// adds to the tally once per (step, value) (see sparseGossip), and only
// the logged deliveries, equivocal votes among them, apply in arrival
// order (see flushLogs).
type stepTally struct {
	slots        []tallyEntry
	n            int // live slot count
	equivocators map[int]struct{}
}

// tallyMinSlots is the initial value-array size. It covers the steps
// after reduction step 1 without growth, but not step 1 itself: counted
// over two honest fig3_sparse_50k operations (8 rounds, TauProposer 26),
// every grow was at step 1, and 2,669 step-1 tallies grew 8→16→32→64
// slots, each holding at least 24 values — one per live proposal.
const tallyMinSlots = 8

func newStepTally() *stepTally {
	return &stepTally{slots: make([]tallyEntry, tallyMinSlots)}
}

// slotFor returns the entry for value, claiming a free slot when absent.
func (t *stepTally) slotFor(value ledger.Hash) *tallyEntry {
	if t.n*4 >= len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := binary.LittleEndian.Uint64(value[:8]) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if !e.live {
			e.live = true
			e.key = value
			e.w = 0
			t.n++
			return e
		}
		if e.key == value {
			return e
		}
	}
}

// grow doubles the value array. On an honest run only reduction step 1
// outgrows tallyMinSlots, with one value per live proposal (see
// tallyMinSlots); equivocation fans can grow any step.
func (t *stepTally) grow() {
	old := t.slots
	t.slots = make([]tallyEntry, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		e := &old[i]
		if !e.live {
			continue
		}
		j := binary.LittleEndian.Uint64(e.key[:8]) & mask
		for t.slots[j].live {
			j = (j + 1) & mask
		}
		t.slots[j] = *e
	}
}

// add records a vote of the given weight. An equivocal vote counts only
// if it is the first of its voter's votes to reach this tally.
func (t *stepTally) add(voter int, value ledger.Hash, weight float64, equivocal bool) {
	if equivocal {
		if _, dup := t.equivocators[voter]; dup {
			return
		}
		if t.equivocators == nil {
			t.equivocators = make(map[int]struct{})
		}
		t.equivocators[voter] = struct{}{}
	}
	t.slotFor(value).w += weight
}

// reset empties the tally for reuse in a later round, keeping the sized
// array and voter set.
func (t *stepTally) reset() {
	if t.n > 0 {
		for i := range t.slots {
			t.slots[i].live = false
		}
		t.n = 0
	}
	clear(t.equivocators)
}

// leader returns the value with the largest weight and that weight.
func (t *stepTally) leader() (ledger.Hash, float64) {
	var best ledger.Hash
	bestW := -1.0
	for i := range t.slots {
		e := &t.slots[i]
		if !e.live {
			continue
		}
		if e.w > bestW || (e.w == bestW && hashLess(e.key, best)) {
			best, bestW = e.key, e.w
		}
	}
	if bestW < 0 {
		return ledger.Hash{}, 0
	}
	return best, bestW
}

// weightFor returns the accumulated weight for value.
func (t *stepTally) weightFor(value ledger.Hash) float64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := binary.LittleEndian.Uint64(value[:8]) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if !e.live {
			return 0
		}
		if e.key == value {
			return e.w
		}
	}
}

func hashLess(a, b ledger.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// node is one simulated participant's protocol state for the current
// round. Long-lived state (the ledger replica, behaviour) persists across
// rounds; per-round state is reset by beginRound.
type node struct {
	id       int
	behavior Behavior
	ledger   *ledger.Ledger
	synced   bool

	// Per-round state. beginRound resets values but retains the list
	// and tallies, so steady-state rounds run allocation-lean. accepted
	// holds the indices in Runner.props of the proposals this node
	// accepted this round (see Runner.accept).
	round        uint64
	bestPriority sortition.Priority
	bestProposal *proposalPayload
	accepted     []int32
	tallies      []*stepTally // indexed by step; nil until first used
	finalTally   *stepTally
	value        ledger.Hash // current BinaryBA* value
	emptyH       ledger.Hash // this round's empty-block hash (see emptyHash)
	decided      bool
	decidedHash  ledger.Hash
	decidedStep  uint64
	outcome      Outcome
	outcomeHash  ledger.Hash
}

// recycle readies a pooled node struct for another run: it keeps the
// allocated containers (accepted list, tallies) and zeroes everything
// else. The tallies still hold the previous run's entries; beginRound
// resets them before any read.
func (nd *node) recycle() {
	*nd = node{
		accepted:   nd.accepted[:0],
		tallies:    nd.tallies,
		finalTally: nd.finalTally,
	}
}

func (nd *node) beginRound(round uint64) {
	nd.round = round
	nd.bestPriority = sortition.Priority{}
	nd.bestProposal = nil
	nd.accepted = nd.accepted[:0]
	for _, t := range nd.tallies {
		if t != nil {
			t.reset()
		}
	}
	if nd.finalTally == nil {
		nd.finalTally = newStepTally()
	} else {
		nd.finalTally.reset()
	}
	nd.value = ledger.Hash{}
	// The empty-block hash is pure in the node's chain view, which is
	// frozen until this round finalises; deriving it once replaces the
	// two SHA-256 invocations every emptyHash call used to pay. A nil
	// ledger only occurs in unit tests exercising tally mechanics.
	nd.emptyH = ledger.Hash{}
	if nd.ledger != nil {
		nd.emptyH = ledger.EmptyBlock(round, nd.ledger.Tip(), ledger.NextSeed(nd.ledger.Seed(), round)).Hash()
	}
	nd.decided = false
	nd.decidedHash = ledger.Hash{}
	nd.decidedStep = 0
	nd.outcome = OutcomeNone
	nd.outcomeHash = ledger.Hash{}
}

// tally returns the node's tally for a BA* step, allocating it on first
// use; later rounds reuse it after beginRound's reset.
func (nd *node) tally(step uint64) *stepTally {
	if step < uint64(len(nd.tallies)) {
		if t := nd.tallies[step]; t != nil {
			return t
		}
	} else {
		nd.tallies = append(nd.tallies, make([]*stepTally, step+1-uint64(len(nd.tallies)))...)
	}
	t := newStepTally()
	nd.tallies[step] = t
	return t
}

// observeProposal records that the node accepted p, the entry at slot
// of the round's proposal table, so it can commit p's block on
// consensus, and keeps p if it beats the current best priority.
func (nd *node) observeProposal(p *proposalPayload, slot int32) {
	if !slices.Contains(nd.accepted, slot) {
		nd.accepted = append(nd.accepted, slot)
	}
	if nd.bestProposal == nil || nd.bestPriority.Less(p.Credential.Priority) {
		nd.bestProposal = p
		nd.bestPriority = p.Credential.Priority
	}
}

// observeVote records a verified committee vote.
func (nd *node) observeVote(v *votePayload) {
	weight := float64(v.Credential.SubUsers)
	if v.Final {
		nd.finalTally.add(v.Voter, v.Value, weight, v.equivocal)
		return
	}
	nd.tally(v.Step).add(v.Voter, v.Value, weight, v.equivocal)
}
