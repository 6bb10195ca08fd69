package protocol

import (
	"maps"
	"math/rand"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
)

func TestStepTallyDeduplicatesVoters(t *testing.T) {
	tally := newStepTally()
	h, other := ledger.Hash{1}, ledger.Hash{2}
	tally.add(7, h, 5, true)
	tally.add(7, other, 5, true) // the same voter's second variant: ignored
	tally.add(7, h, 5, true)     // and a repeat of the first: ignored
	tally.add(8, h, 3, false)
	if got := tally.weightFor(h); got != 8 {
		t.Errorf("weight = %v, want 8", got)
	}
	if got := tally.weightFor(other); got != 0 {
		t.Errorf("later variant weight = %v, want 0 (first arrival wins)", got)
	}
	// An unflagged vote is a distinct message the network delivered once,
	// so it always counts.
	tally.add(9, other, 2, false)
	if got := tally.weightFor(other); got != 2 {
		t.Errorf("unflagged vote weight = %v, want 2", got)
	}
	// A reset tally forgets its equivocators.
	tally.reset()
	tally.add(7, other, 4, true)
	if got := tally.weightFor(other); got != 4 {
		t.Errorf("after reset weight = %v, want 4", got)
	}
}

// TestStepTallyMatchesFirstArrivalReference feeds random vote streams
// with equivocating voters through stepTally and through a map-based
// reference that counts each voter's first arriving vote, as the
// network would deliver them: every honest vote once, every variant of
// an equivocator's vote once, interleaved in random order.
func TestStepTallyMatchesFirstArrivalReference(t *testing.T) {
	type vote struct {
		voter     int
		value     ledger.Hash
		weight    float64
		equivocal bool
	}
	rng := rand.New(rand.NewSource(11))
	values := []ledger.Hash{{1}, {2}, {3}, {4}, {5}}
	tally := newStepTally()
	for trial := 0; trial < 200; trial++ {
		tally.reset() // reuse across trials, as rounds do
		var stream []vote
		voters := 1 + rng.Intn(60)
		for voter := 0; voter < voters; voter++ {
			weight := float64(1 + rng.Intn(4))
			variants := 1
			if rng.Float64() < 0.3 {
				variants = 2 + rng.Intn(3)
			}
			for v := 0; v < variants; v++ {
				stream = append(stream, vote{
					voter:     voter,
					value:     values[rng.Intn(len(values))],
					weight:    weight,
					equivocal: variants > 1,
				})
			}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

		counted := make(map[int]bool)
		want := make(map[ledger.Hash]float64)
		for _, v := range stream {
			tally.add(v.voter, v.value, v.weight, v.equivocal)
			if !counted[v.voter] {
				counted[v.voter] = true
				want[v.value] += v.weight
			}
		}
		for _, h := range values {
			if got := tally.weightFor(h); got != want[h] {
				t.Fatalf("trial %d: weight for %v = %v, reference %v", trial, h[0], got, want[h])
			}
		}
		wantLeader, wantW := ledger.Hash{}, -1.0
		for _, h := range values {
			if w, ok := want[h]; ok && (w > wantW || (w == wantW && hashLess(h, wantLeader))) {
				wantLeader, wantW = h, w
			}
		}
		if leader, w := tally.leader(); leader != wantLeader || w != wantW {
			t.Fatalf("trial %d: leader %v (%v), reference %v (%v)", trial, leader[0], w, wantLeader[0], wantW)
		}
	}
}

func TestStepTallyLeader(t *testing.T) {
	tally := newStepTally()
	a, b := ledger.Hash{1}, ledger.Hash{2}
	tally.add(1, a, 5, false)
	tally.add(2, b, 9, false)
	leader, w := tally.leader()
	if leader != b || w != 9 {
		t.Errorf("leader = %v (%v), want b (9)", leader, w)
	}
	empty := newStepTally()
	if _, w := empty.leader(); w != 0 {
		t.Errorf("empty tally leader weight = %v", w)
	}
}

func TestStepTallyLeaderTieBreak(t *testing.T) {
	tally := newStepTally()
	a, b := ledger.Hash{1}, ledger.Hash{2}
	tally.add(1, b, 5, false)
	tally.add(2, a, 5, false)
	leader, _ := tally.leader()
	// Ties break towards the lexicographically smaller hash for
	// determinism.
	if leader != a {
		t.Errorf("tie broke to %v, want the smaller hash", leader)
	}
}

func TestHashLess(t *testing.T) {
	a, b := ledger.Hash{1}, ledger.Hash{2}
	if !hashLess(a, b) || hashLess(b, a) || hashLess(a, a) {
		t.Error("hashLess ordering broken")
	}
}

func TestProposalAndVoteIDsDistinct(t *testing.T) {
	ids := map[[32]byte]string{}
	record := func(id [32]byte, label string) {
		if prev, dup := ids[id]; dup {
			t.Fatalf("id collision between %s and %s", prev, label)
		}
		ids[id] = label
	}
	record(proposalID(1, 0), "proposal r1 n0")
	record(proposalID(1, 1), "proposal r1 n1")
	record(proposalID(2, 0), "proposal r2 n0")
	record(voteID(1, 1, false, 0), "vote r1 s1 n0")
	record(voteID(1, 1, false, 1), "vote r1 s1 n1")
	record(voteID(1, 2, false, 0), "vote r1 s2 n0")
	record(voteID(2, 1, false, 0), "vote r2 s1 n0")
	record(voteID(1, 1, true, 0), "final vote r1 s1 n0")
}

func TestNodeObserveProposalKeepsHighestPriority(t *testing.T) {
	r := &Runner{}
	nd := &node{}
	nd.beginRound(1)
	low := &proposalPayload{
		Block:      ledger.Block{Round: 1, Proposer: 1},
		BlockHash:  ledger.Hash{1},
		Credential: sortition.Result{Priority: sortition.Priority{0: 1}},
		Proposer:   1,
	}
	high := &proposalPayload{
		Block:      ledger.Block{Round: 1, Proposer: 2},
		BlockHash:  ledger.Hash{2},
		Credential: sortition.Result{Priority: sortition.Priority{0: 9}},
		Proposer:   2,
	}
	observe := func(p *proposalPayload) { nd.observeProposal(p, r.accept(p)) }
	observe(low)
	observe(high)
	observe(low) // lower priority again: must not displace, nor add an entry
	if nd.bestProposal.Proposer != 2 {
		t.Errorf("best proposal from %d, want 2", nd.bestProposal.Proposer)
	}
	if len(nd.accepted) != 2 || len(r.props) != 2 {
		t.Errorf("node accepted %d entries of a %d-entry table, want 2 of 2", len(nd.accepted), len(r.props))
	}
	for _, p := range []*proposalPayload{low, high} {
		if b, ok := r.blockFor(nd, p.BlockHash); !ok || b.Proposer != p.Proposer {
			t.Errorf("hash %x resolves to %+v (%v), want proposer %d's block", p.BlockHash[:1], b, ok, p.Proposer)
		}
	}
	if _, ok := r.blockFor(nd, ledger.Hash{3}); ok {
		t.Error("a hash the node never accepted resolves")
	}
}

// A payload's stored table index is trusted only while the entry it
// names is that payload: an index left from an earlier round, or one
// that names another payload, registers the payload afresh.
func TestProposalTableRegistersStaleIndexAfresh(t *testing.T) {
	r := &Runner{}
	a := &proposalPayload{BlockHash: ledger.Hash{1}}
	b := &proposalPayload{BlockHash: ledger.Hash{2}, slot: 0} // names a's entry
	c := &proposalPayload{BlockHash: ledger.Hash{3}, slot: 7} // past the table's end
	if got := r.accept(a); got != 0 {
		t.Fatalf("first payload registered at %d, want 0", got)
	}
	if got := r.accept(b); got != 1 || r.props[1] != b {
		t.Fatalf("payload whose index names another registered at %d, want 1", got)
	}
	if got := r.accept(c); got != 2 || r.props[2] != c {
		t.Fatalf("payload with an index past the table registered at %d, want 2", got)
	}
	if r.accept(a) != 0 || r.accept(b) != 1 || r.accept(c) != 2 || len(r.props) != 3 {
		t.Fatalf("accepting registered payloads again changed the table: %d entries", len(r.props))
	}
}

// A proposal a node accepted in one round does not resolve after the
// next round's reset, on either path: the next round here withholds
// every proposal, so its table and every node's accepted list must be
// empty, and no index from the earlier round may survive.
func TestProposalTableResetsEachRound(t *testing.T) {
	for _, mode := range []SparseMode{SparseOff, SparseOn} {
		cfg := sparseTestConfig(200, 3, mode)
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		withhold := false
		r.SetHooks(Hooks{ProposalFan: func(int, uint64) int {
			if withhold {
				return 0
			}
			return 1
		}})
		r.RunRounds(1)
		held := map[int]ledger.Hash{}
		for _, nd := range r.roundNodes() {
			if len(nd.accepted) > 0 {
				held[nd.id] = r.props[nd.accepted[0]].BlockHash
			}
		}
		if len(held) == 0 {
			t.Fatalf("mode %v: no node accepted a proposal in round 1", mode)
		}
		withhold = true
		r.RunRounds(1)
		if len(r.props) != 0 {
			t.Errorf("mode %v: round 2 withheld every proposal but its table holds %d", mode, len(r.props))
		}
		for _, nd := range r.roundNodes() {
			if len(nd.accepted) != 0 {
				t.Fatalf("mode %v: node %d kept %d accepted entries into round 2", mode, nd.id, len(nd.accepted))
			}
			if h, ok := held[nd.id]; ok && r.proposalFor(nd, h) != nil {
				t.Fatalf("mode %v: node %d resolves its round-1 proposal in round 2", mode, nd.id)
			}
		}
	}
}

func TestNodeObserveVoteRouting(t *testing.T) {
	nd := &node{}
	nd.beginRound(3)
	nd.observeVote(&votePayload{
		Round: 3, Step: 2, Voter: 4, Value: ledger.Hash{7},
		Credential: sortition.Result{SubUsers: 6},
	})
	nd.observeVote(&votePayload{
		Round: 3, Final: true, Voter: 5, Value: ledger.Hash{7},
		Credential: sortition.Result{SubUsers: 2},
	})
	if got := nd.tally(2).weightFor(ledger.Hash{7}); got != 6 {
		t.Errorf("step tally weight = %v, want 6", got)
	}
	if got := nd.finalTally.weightFor(ledger.Hash{7}); got != 2 {
		t.Errorf("final tally weight = %v, want 2", got)
	}
}

func TestRemovePending(t *testing.T) {
	r := &Runner{}
	r.pending = []ledger.Transaction{
		{Nonce: 1}, {Nonce: 2}, {Nonce: 3},
	}
	r.removePending([]ledger.Transaction{{Nonce: 2}})
	if len(r.pending) != 2 || r.pending[0].Nonce != 1 || r.pending[1].Nonce != 3 {
		t.Errorf("pending after removal: %+v", r.pending)
	}
	r.removePending(nil) // no-op
	if len(r.pending) != 2 {
		t.Error("nil removal changed pending")
	}
}

func TestResolveTau(t *testing.T) {
	if got := resolveTau(0.35, 1000); got != 350 {
		t.Errorf("fractional tau = %v, want 350", got)
	}
	if got := resolveTau(26, 1000); got != 26 {
		t.Errorf("absolute tau = %v, want 26", got)
	}
}

func TestSortRoleStakes(t *testing.T) {
	rs := []RoleStake{{ID: 3}, {ID: 1}, {ID: 2}}
	sortRoleStakes(rs)
	for i, want := range []int{1, 2, 3} {
		if rs[i].ID != want {
			t.Fatalf("sorted order %v", rs)
		}
	}
}

// TestRecoversCatchUpRule pins the catch-up rule both round paths share
// (see recovers): who recovers, and whether the attempt takes a draw
// from the path's stream. Each case runs recovers on one of two streams
// seeded alike; that stream's next value must then be the twin's first
// value when no draw was taken, or its second after one draw.
func TestRecoversCatchUpRule(t *testing.T) {
	r, err := NewRunner(sparseTestConfig(40, 3, SparseOff))
	if err != nil {
		t.Fatal(err)
	}
	const id = 0
	peers := r.net.Peers(id)
	if len(peers) < 4 {
		t.Fatalf("node %d has %d peers, want at least 4", id, len(peers))
	}
	lagging := map[int]bool{}
	synced := func(peer int) bool { return !lagging[peer] }
	for _, tc := range []struct {
		name  string
		setup func()
		prob  float64
		want  bool
		draws int
	}{
		{"selfish lagging node", func() {
			r.SetBehavior(id, Selfish)
			for _, p := range peers {
				lagging[p] = true
			}
		}, 0, true, 0},
		{"offline honest node", func() { r.net.SetOnline(id, false) }, 1, false, 0},
		{"no honest, online, synced peer", func() {
			r.SetBehavior(peers[0], Selfish)
			r.net.SetOnline(peers[1], false)
			r.SetBehavior(peers[2], Malicious)
			for _, p := range peers[3:] {
				lagging[p] = true
			}
		}, 1, false, 1},
		{"one honest, online, synced peer", func() {
			for _, p := range peers[:len(peers)-1] {
				lagging[p] = true
			}
		}, 1, true, 1},
		{"failed draw", func() {}, 0, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range r.behaviors {
				r.SetBehavior(i, Honest)
				r.net.SetOnline(i, true)
			}
			clear(lagging)
			tc.setup()
			rng, twin := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			if got := r.recovers(id, rng, tc.prob, synced); got != tc.want {
				t.Errorf("recovers = %v, want %v", got, tc.want)
			}
			want := twin.Float64()
			if tc.draws == 1 {
				want = twin.Float64()
			}
			if rng.Float64() != want {
				t.Errorf("the attempt did not take exactly %d draw(s)", tc.draws)
			}
		})
	}
}

// TestClassifyOutcomes pins the final/tentative/none rule both round
// paths end through (see classifyOutcomes). Each case readies node 0 of
// an otherwise undecided dense round and checks the node's outcome, the
// report's three counts and the decisions map.
func TestClassifyOutcomes(t *testing.T) {
	const (
		n        = 20
		id       = 0
		lastStep = 5 // past step 3, so a last-look decision casts no final vote
	)
	block := ledger.Hash{7}
	decide := func(nd *node, h ledger.Hash) { nd.decided, nd.decidedHash = true, h }
	hold := func(r *Runner, nd *node) {
		p := &proposalPayload{Block: ledger.Block{Round: 1, Proposer: 3}, BlockHash: block, Proposer: 3}
		nd.observeProposal(p, r.accept(p))
	}
	certify := func(r *Runner, nd *node, margin float64) {
		nd.finalTally.add(1, block, r.params.ThresholdFinal*r.tauFinalAbs+margin, false)
	}
	for _, tc := range []struct {
		name  string
		setup func(r *Runner, nd *node)
		want  Outcome
		empty bool // the extracted hash is the empty block's, not block
	}{
		{"certified block", func(r *Runner, nd *node) {
			decide(nd, block)
			hold(r, nd)
			certify(r, nd, 0)
		}, OutcomeFinal, false},
		{"block short of the final quorum", func(r *Runner, nd *node) {
			decide(nd, block)
			hold(r, nd)
			certify(r, nd, -1)
		}, OutcomeTentative, false},
		{"empty block", func(r *Runner, nd *node) {
			decide(nd, nd.emptyHash())
		}, OutcomeTentative, true},
		{"certified block without its body", func(r *Runner, nd *node) {
			decide(nd, block)
			certify(r, nd, 0)
		}, OutcomeNone, false},
		{"undecided, last look reaches quorum", func(r *Runner, nd *node) {
			nd.tally(lastStep).add(1, block, r.params.ThresholdStep*r.tauStepAbs, false)
			hold(r, nd)
		}, OutcomeTentative, false},
		{"selfish node", func(r *Runner, nd *node) {
			r.SetBehavior(id, Selfish)
			decide(nd, block)
			hold(r, nd)
			certify(r, nd, 0)
		}, OutcomeNone, false},
		{"offline node", func(r *Runner, nd *node) {
			r.net.SetOnline(id, false)
			decide(nd, block)
			hold(r, nd)
			certify(r, nd, 0)
		}, OutcomeNone, false},
		{"lagging node", func(r *Runner, nd *node) {
			nd.synced = false
			decide(nd, block)
			hold(r, nd)
			certify(r, nd, 0)
		}, OutcomeNone, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(sparseTestConfig(n, 3, SparseOff))
			if err != nil {
				t.Fatal(err)
			}
			r.tauStepAbs, r.tauFinalAbs = r.params.TauStep, r.params.TauFinal
			for _, nd := range r.nodes {
				nd.beginRound(1)
			}
			nd := r.nodes[id]
			tc.setup(r, nd)
			report := RoundReport{Round: 1}
			decisions := map[ledger.Hash]int{}
			r.classifyOutcomes(&report, lastStep, decisions)

			if nd.outcome != tc.want {
				t.Fatalf("outcome = %v, want %v", nd.outcome, tc.want)
			}
			counts := map[Outcome]int{OutcomeFinal: report.FinalCount, OutcomeTentative: report.TentativeCount, OutcomeNone: report.NoneCount}
			wantCounts := map[Outcome]int{OutcomeFinal: 0, OutcomeTentative: 0, OutcomeNone: n - 1}
			wantCounts[tc.want]++
			if !maps.Equal(counts, wantCounts) {
				t.Errorf("counts = %v, want %v", counts, wantCounts)
			}
			wantDecisions := map[ledger.Hash]int{}
			if tc.want != OutcomeNone {
				hash := block
				if tc.empty {
					hash = nd.emptyHash()
				}
				if nd.outcomeHash != hash {
					t.Errorf("outcome hash = %x, want %x", nd.outcomeHash[:4], hash[:4])
				}
				wantDecisions[hash] = 1
			}
			if !maps.Equal(decisions, wantDecisions) {
				t.Errorf("decisions = %v, want %v", decisions, wantDecisions)
			}
		})
	}
}
