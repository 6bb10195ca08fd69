package protocol

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// SparseMode selects between the dense per-node sortition sweep and the
// centralized sparse-committee round path.
//
// The dense path evaluates one VRF lottery per node per step — O(N) work
// per step for committees whose expected size is a constant τ — and
// clones a ledger view per node. The sparse path draws each step's TOTAL
// seat count from one binomial over the whole network stake, maps seats
// to nodes by bisecting cumulative stake, and materializes per-node
// runner state only for the nodes that can act this round (committee
// members plus a uniform probe panel). Per-round cost then tracks
// committee size, not population, which is what lets a 500k-node run
// complete on one machine.
//
// The two paths are distributionally equivalent, not bit-identical: by
// binomial splitting, total-draw-then-stake-weighted-seat-assignment
// (without replacement over stake units) yields exactly the joint
// per-node Binomial(w_i, τ/W) law of independent per-node draws, and the
// randomized equivalence suite pins the committee-size distributions
// against each other. Gossip becomes mean-field (see sparseGossip), and
// per-node round outcomes are observed on the probe panel and
// extrapolated to the unmaterialized population, so RoundReport.Outcomes
// is nil in sparse rounds (Population carries the denominator).
type SparseMode uint8

const (
	// SparseAuto — the default — picks the sparse path when the
	// population is at least SparseAutoThreshold nodes AND the committee
	// taus are absolute (> 1): fractional taus select stake-proportional
	// committees that are themselves O(N), so there is nothing sparse to
	// exploit. Small or fractional-tau configurations keep the dense
	// path, bit-identical to builds that predate sparse mode.
	SparseAuto SparseMode = iota
	// SparseOff forces the dense per-node sweep.
	SparseOff
	// SparseOn forces the sparse path and makes NewRunner reject
	// configurations it cannot serve (fractional taus).
	SparseOn
)

// SparseAutoThreshold is the population size at which SparseAuto switches
// to the sparse path (given absolute taus). Below it the dense sweep is
// cheap and keeps golden outputs bit-identical.
const SparseAutoThreshold = 4096

// String renders the mode the way ParseSparseMode reads it.
func (m SparseMode) String() string {
	switch m {
	case SparseOff:
		return "off"
	case SparseOn:
		return "on"
	default:
		return "auto"
	}
}

// ParseSparseMode reads the CLI spelling of a SparseMode.
func ParseSparseMode(s string) (SparseMode, error) {
	switch s {
	case "", "auto":
		return SparseAuto, nil
	case "off", "dense":
		return SparseOff, nil
	case "on", "sparse":
		return SparseOn, nil
	}
	return SparseAuto, fmt.Errorf("protocol: unknown sparse mode %q (want auto, on or off)", s)
}

// sparsePanelSize is the probe-panel size: uniformly drawn nodes
// materialized as pure observers so per-node outcome and desync fractions
// can be measured and extrapolated to the unmaterialized population.
const sparsePanelSize = 256

// errSparseTau rejects SparseOn with fractional taus.
var errSparseTau = errors.New(
	"protocol: Sparse: SparseOn requires absolute TauStep and TauFinal (> 1); " +
		"fractional taus make committees O(population)")

// sparseEligible reports whether cfg can run the sparse path at all.
func sparseEligible(cfg *Config) bool {
	return cfg.Params.TauStep > 1 && cfg.Params.TauFinal > 1
}

// sparseCommittee is one step's pre-sampled committee: seat counts by
// node plus the deterministic (sorted) iteration order. Seats are the
// lottery only — behaviour/online/synced filters apply at emission time,
// exactly where the dense path applies them, so mid-round behaviour flips
// (adaptive corruption) see the same semantics on both paths.
type sparseCommittee struct {
	seats map[int]int
	ids   []int
}

func (c *sparseCommittee) reset() {
	if c.seats == nil {
		c.seats = make(map[int]int)
	} else {
		clear(c.seats)
	}
	c.ids = c.ids[:0]
}

// sparseState is the per-runner state of the sparse-committee path.
type sparseState struct {
	// rng is the dedicated deterministic stream ("protocol.sparse") every
	// sparse draw consumes, in a fixed code order over sorted id sets, so
	// runs are reproducible and worker-count invariant.
	rng *rand.Rand

	// idx is the weight-index fast path for seat→node bisection; nil when
	// the runner's oracle is not an incremental index. prefix is the
	// fallback: integer stake-unit prefix sums rebuilt each round.
	idx    *weight.Index
	prefix []int64

	// trials is Σ int(w_i): the total integer stake units, the binomial
	// trial count a whole-network draw runs over (dense sortition
	// truncates each node's stake to whole units — see sortition.Select).
	trials int64
	// integral notes whether every stake is a whole number this round,
	// the precondition for bisecting the float Fenwick tree exactly.
	integral bool

	// committees maps sortition step → pre-sampled committee. Step 0 is
	// the proposer lottery; finalVoteStep the final committee.
	committees map[uint64]*sparseCommittee
	comPool    []*sparseCommittee

	// actors are the materialized nodes this round, sorted by id; the
	// same structs are linked from Runner.nodes[id]. free pools returned
	// node structs across rounds.
	actors []*node
	free   []*node

	// panel are this round's probe ids (sorted, distinct, uniform).
	panel []int

	// pinned are ids materialized every round regardless of committee or
	// panel membership, set via Runner.PinMaterialized. Adversary
	// scenarios that name victims by index pin them so per-victim
	// NodeOutcome queries report exact outcomes instead of the
	// unmaterialized OutcomeNone. Pinned nodes join the exact-outcome
	// side of the panel extrapolation (they are materialized), but never
	// the panel statistics themselves — the panel stays a uniform draw.
	pinned []int

	// desynced is the explicit lagging-node set replacing per-node ledger
	// views: materialized nodes all share the canonical ledger read-only,
	// and membership here is what "behind the canonical chain" means.
	desynced map[int]struct{}

	// hops is the modelled gossip path length: each mean-field delivery
	// delays by the sum of hops per-hop samples.
	hops int

	// reach is this round's expected epidemic coverage (recomputed each
	// round from the live relay fraction); relayFrac backs it.
	reach float64

	// delayTable is the round's empirical path-delay distribution: each
	// entry is one pre-sampled multi-hop first-passage delay, and every
	// mean-field delivery draws one entry uniformly. Pre-sampling keeps the
	// per-delivery cost at a single RNG draw while the table itself models
	// hops × (min of fanout per-hop samples) — the epidemic front advances
	// on the fastest outgoing link of each relay, not an average one, which
	// is what makes sparse vote-arrival times match the dense network's
	// first-arrival times within the step windows.
	delayTable []time.Duration

	// Delivery logs (see flushLogs). logs[i] holds the pending
	// deliveries to actors[i]; orphans hold those to nodes this round did
	// not materialize, which only deliveries emitted after a drain can
	// address. msgs are the payloads the logs refer to, in emission order.
	// base is the instant arrival offsets count from: the end of the last
	// drain, which is this round's start. carry counts the msgs emitted
	// after that drain, before this round scheduled its timers. freeBlk is
	// the freelist of log blocks; due and traced are flush scratch.
	logs    []recvLog
	orphans []recvLog
	msgs    []any
	base    time.Duration
	carry   int
	freeBlk *logBlock
	due     []uint64
	traced  []tracedKey

	// Folded votes (see sparseGossip). timers are the offsets from base of
	// the phase timers the running round scheduled, empty from its drain
	// until the next round schedules them; next is the index of the next
	// timer to fire. folds[k] sums the plain votes due at timer k, and
	// folds[len(timers)] those due at the drain. groupOf is emission
	// scratch: the emitted vote's group in each window, -1 until its first
	// delivery there. seatPool holds cleared group seat arrays.
	timers   []time.Duration
	next     int
	folds    []foldWindow
	groupOf  []int
	seatPool [][]int64

	// scratch buffers reused across rounds.
	idScratch  []int
	desScratch []int
}

// A log entry is one packed key: the arrival offset from sparseState.base
// in the high bits and the payload's index in msgs in the low
// logIdxBits. Payloads are indexed in emission order, so one uint64
// compare orders two entries by (arrival, emission), the order one
// scheduler event per delivery would run them in.
const (
	logIdxBits = 24
	logIdxMask = 1<<logIdxBits - 1
	// logMaxMsgs bounds the payloads one round can gossip.
	logMaxMsgs = 1 << logIdxBits
	// logSpan bounds an arrival's offset from its round's start: 2^40 ns,
	// about 18 minutes.
	logSpan = time.Duration(1) << (64 - logIdxBits)
)

// logBlockLen is the key capacity of one log block, which makes a block
// 512 bytes.
const logBlockLen = 63

// logBlock is one link of a receiver's log, its keys in emission order.
type logBlock struct {
	next *logBlock
	keys [logBlockLen]uint64
}

// recvLog is one receiver's pending deliveries: a chain of blocks, each
// full but the tail, which holds n keys (head is nil when the log is
// empty).
type recvLog struct {
	head, tail *logBlock
	n          int32
	id         int32
}

// foldWindow sums the plain votes due at one phase timer (or the drain):
// count[i] is the number delivered to actors[i], and each group sums the
// seats of one (step, value) pair per actor.
type foldWindow struct {
	count  []int32
	groups []foldGroup
}

// foldGroup is the votes of one window for one (step or final, value)
// pair: seats[i] sums the seats of those delivered to actors[i].
type foldGroup struct {
	final bool
	step  uint64
	value ledger.Hash
	seats []int64
}

// tracedKey is a flushed delivery to a node of the trace panel.
type tracedKey struct {
	key uint64
	id  int32
}

// SparseRangeError stops a sparse run (see Runner.Err) with a delivery
// the delivery logs cannot key: one arriving logSpan or more after its
// round starts, or one more logged payload than logMaxMsgs in a round.
// Every delivery is checked for its arrival, folded votes included; only
// payloads with a logged delivery count towards the limit.
type SparseRangeError struct {
	// Arrival is the offending arrival offset (logSpan when its delay
	// alone reaches the span); zero for a payload count.
	Arrival time.Duration
	// Payloads is the offending payload count; zero for an arrival.
	Payloads int
}

func (e *SparseRangeError) Error() string {
	if e.Payloads > 0 {
		return fmt.Sprintf("protocol: Sparse: %d payloads logged in one round; sparse delivery logs index at most %d",
			e.Payloads, logMaxMsgs)
	}
	return fmt.Sprintf("protocol: Sparse: a delivery arrives %v after its round starts; sparse delivery logs hold arrivals below %v",
		e.Arrival, logSpan)
}

func newSparseState(rng *rand.Rand) *sparseState {
	return &sparseState{
		rng:        rng,
		committees: make(map[uint64]*sparseCommittee),
		desynced:   make(map[int]struct{}),
	}
}

// adopt rewinds a recycled sparseState for a fresh runner, keeping pooled
// node structs and committee maps but dropping all run-specific state.
func (s *sparseState) adopt(rng *rand.Rand) {
	s.rng = rng
	s.idx = nil
	for step, c := range s.committees {
		c.reset()
		s.comPool = append(s.comPool, c)
		delete(s.committees, step)
	}
	for _, nd := range s.actors {
		s.free = append(s.free, nd)
	}
	s.actors = s.actors[:0]
	s.panel = s.panel[:0]
	s.pinned = s.pinned[:0]
	clear(s.desynced)
	// Deliveries the previous run emitted after its last drain never run.
	for i := range s.logs {
		s.freeLog(&s.logs[i])
	}
	for i := range s.orphans {
		s.freeLog(&s.orphans[i])
	}
	s.logs = s.logs[:0]
	s.orphans = s.orphans[:0]
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	s.base, s.carry = 0, 0
	s.timers, s.next = s.timers[:0], 0
}

// release drops what a pooled sparseState still references of its last
// run (see Arena.Release): the run's RNG, weight index and payloads, and
// the ledger and proposal of every pooled node.
func (s *sparseState) release() {
	s.adopt(nil)
	for _, nd := range s.free {
		nd.recycle()
	}
}

// takeCommittee returns a cleared committee from the pool.
func (s *sparseState) takeCommittee() *sparseCommittee {
	if n := len(s.comPool); n > 0 {
		c := s.comPool[n-1]
		s.comPool = s.comPool[:n-1]
		return c
	}
	c := &sparseCommittee{seats: make(map[int]int)}
	return c
}

// committeeFor returns the pre-sampled committee for a sortition step (0
// = proposer, finalVoteStep = final committee), or nil outside the
// sampled set.
func (s *sparseState) committeeFor(step uint64) *sparseCommittee {
	return s.committees[step]
}

// refreshWeights derives the round's integer stake-unit geometry from the
// runner's weight snapshot: total trials, integrality, and — when the
// Fenwick fast path is unavailable or inexact — the unit prefix array.
func (s *sparseState) refreshWeights(stakes []float64, oracle weight.Oracle) {
	s.trials = 0
	s.integral = true
	for _, w := range stakes {
		t := int64(w)
		s.trials += t
		if float64(t) != w {
			s.integral = false
		}
	}
	s.idx = nil
	if idx, ok := oracle.(*weight.Index); ok && s.integral {
		// Whole-unit stakes make the float Fenwick tree an exact integer
		// prefix structure, so seat units bisect it without building
		// anything per round.
		s.idx = idx
		return
	}
	s.prefix = s.prefix[:0]
	if cap(s.prefix) < len(stakes)+1 {
		s.prefix = make([]int64, 0, len(stakes)+1)
	}
	var cum int64
	s.prefix = append(s.prefix, 0)
	for _, w := range stakes {
		cum += int64(w)
		s.prefix = append(s.prefix, cum)
	}
}

// seatNode maps one stake unit (0 <= unit < trials) to its owning node.
func (s *sparseState) seatNode(unit int64) int {
	if s.idx != nil {
		return s.idx.Bisect(float64(unit))
	}
	// smallest i with prefix[i+1] > unit
	return sort.Search(len(s.prefix)-1, func(i int) bool { return s.prefix[i+1] > int64(unit) })
}

// sampleCommittee draws one step's whole-network lottery: the total seat
// count S ~ Binomial(trials, tau/W), then S distinct stake units sampled
// without replacement and mapped to their owners. Sampling units without
// replacement makes the per-node seat counts exactly the multivariate
// conditional of independent per-node Binomial(w_i, tau/W) draws — the
// dense path's joint law — including the cap that a node can never hold
// more seats than stake units.
func (s *sparseState) sampleCommittee(tau, totalStake float64) *sparseCommittee {
	c := s.takeCommittee()
	if s.trials <= 0 || totalStake <= 0 {
		return c
	}
	p := tau / totalStake
	seatCount := sortition.Binomial(s.rng, s.trials, p)
	if seatCount <= 0 {
		return c
	}
	// Distinct-unit rejection sampling: seatCount ≪ trials in every
	// sparse-eligible configuration, so collisions are rare. The unit set
	// is only needed transiently.
	taken := make(map[int64]struct{}, seatCount)
	for int64(len(taken)) < seatCount {
		u := s.rng.Int63n(s.trials)
		if _, dup := taken[u]; dup {
			continue
		}
		taken[u] = struct{}{}
		id := s.seatNode(u)
		if c.seats[id] == 0 {
			c.ids = append(c.ids, id)
		}
		c.seats[id]++
	}
	sort.Ints(c.ids)
	return c
}

// samplePanel draws the probe panel: min(sparsePanelSize, n) distinct
// uniform ids. Uniformity over the whole population (not stake) is what
// lets panel outcome fractions extrapolate to per-node counts.
func (s *sparseState) samplePanel(n int) {
	s.panel = s.panel[:0]
	want := sparsePanelSize
	if want > n {
		want = n
	}
	taken := make(map[int]struct{}, want)
	for len(s.panel) < want {
		id := s.rng.Intn(n)
		if _, dup := taken[id]; dup {
			continue
		}
		taken[id] = struct{}{}
		s.panel = append(s.panel, id)
	}
	sort.Ints(s.panel)
}

// takeNode returns a pooled node struct, reset the same way the arena
// resets dense nodes (containers kept, everything else zeroed).
func (s *sparseState) takeNode() *node {
	if n := len(s.free); n > 0 {
		nd := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		nd.recycle()
		return nd
	}
	return &node{}
}

// --- Runner integration --------------------------------------------------

// sparseHops models the epidemic path length for a population of n with
// the given fanout: the depth at which a fanout-ary push tree covers n.
func sparseHops(n, fanout int) int {
	if fanout < 2 {
		fanout = 2
	}
	h := int(math.Ceil(math.Log(float64(n)) / math.Log(float64(fanout))))
	if h < 1 {
		h = 1
	}
	return h
}

// beginRoundSparse replaces the dense O(N) per-node round entry: it
// pre-samples every step committee, materializes committee ∪ panel, and
// runs the flat meter passes (sortition/seed costs accrue to all online
// non-faulty nodes whether or not they are materialized).
func (r *Runner) beginRoundSparse(round uint64, lastStep int) {
	s := r.sparse
	n := len(r.roundStakes)

	// Return last round's materialized nodes to the pool. Deliveries
	// still logged for them were emitted after the last drain, which
	// emptied every other log; they keep their receivers (see placeLogs).
	for _, nd := range s.actors {
		r.nodes[nd.id] = nil
		s.free = append(s.free, nd)
	}
	s.actors = s.actors[:0]
	var carried []recvLog
	for _, l := range s.logs {
		if l.head != nil {
			carried = append(carried, l)
		}
	}
	for step, c := range s.committees {
		c.reset()
		s.comPool = append(s.comPool, c)
		delete(s.committees, step)
	}

	s.refreshWeights(r.roundStakes, r.weights)

	// Pre-sample every step's lottery up front, in a fixed step order, so
	// the materialized set is known before any phase event fires and
	// mean-field deliveries can target the full round's audience.
	s.committees[0] = s.sampleCommittee(r.params.TauProposer, r.roundTotal)
	for step := uint64(1); step <= uint64(lastStep); step++ {
		s.committees[step] = s.sampleCommittee(r.tauStepAbs, r.roundTotal)
	}
	s.committees[finalVoteStep] = s.sampleCommittee(r.tauFinalAbs, r.roundTotal)
	s.samplePanel(n)

	// Materialize committee ∪ panel, sorted by id. Materialized nodes
	// share the canonical ledger read-only (commits become desynced-set
	// updates, never Append), so no per-node clone exists anywhere.
	ids := s.idScratch[:0]
	seen := make(map[int]struct{}, 16*len(s.panel))
	collect := func(id int) {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	for step := uint64(0); step <= uint64(lastStep); step++ {
		for _, id := range s.committees[step].ids {
			collect(id)
		}
	}
	for _, id := range s.committees[finalVoteStep].ids {
		collect(id)
	}
	for _, id := range s.panel {
		collect(id)
	}
	for _, id := range s.pinned {
		collect(id)
	}
	sort.Ints(ids)
	s.idScratch = ids

	for _, id := range ids {
		nd := s.takeNode()
		nd.id = id
		nd.behavior = r.behaviors[id]
		nd.ledger = r.canonical
		_, behind := s.desynced[id]
		nd.synced = !behind
		nd.beginRound(round)
		r.nodes[id] = nd
		s.actors = append(s.actors, nd)
	}
	s.placeLogs(ids, carried)

	// Flat meter pass: every online node derives the round seed; even
	// defectors run sortition to join the network ("paying cost c_so").
	for id := 0; id < n; id++ {
		if r.net.Online(id) && r.behaviors[id] != Faulty {
			meter := r.meter.of(id)
			meter.Sortition++
			if r.behaviors[id] != Selfish {
				meter.Seed++
			}
		}
	}

	// Mean-field reach for this round's gossip: fanout-ary pushes with
	// the current live relay fraction and per-hop loss.
	relayers := 0
	for id := 0; id < n; id++ {
		if r.net.Online(id) && r.net.Relaying(id) {
			relayers++
		}
	}
	s.reach = network.ReachAnalysis{
		Fanout:    r.fanout,
		RelayFrac: float64(relayers) / float64(n),
		LossProb:  r.lossProb,
	}.ExpectedCoverage()

	// Refill the path-delay table (the delay model is stateless but the
	// draw order must stay deterministic, so the table is rebuilt in the
	// fixed round preamble rather than lazily).
	s.delayTable = s.delayTable[:0]
	if cap(s.delayTable) < sparseDelayTableLen {
		s.delayTable = make([]time.Duration, 0, sparseDelayTableLen)
	}
	for i := 0; i < sparseDelayTableLen; i++ {
		var d time.Duration
		for h := 0; h < s.hops; h++ {
			best := r.delay.Sample(s.rng)
			for f := 1; f < r.fanout; f++ {
				if alt := r.delay.Sample(s.rng); alt < best {
					best = alt
				}
			}
			d += best
		}
		s.delayTable = append(s.delayTable, d)
	}
}

// sparseDelayTableLen sizes the per-round empirical path-delay table; see
// sparseState.delayTable.
const sparseDelayTableLen = 4096

// participatesID is the id-indexed participation predicate the sparse
// flat passes use; it matches participates() exactly (synced is the
// desynced-set complement in sparse mode).
func (r *Runner) participatesID(id int) bool {
	if !r.net.Online(id) {
		return false
	}
	if _, behind := r.sparse.desynced[id]; behind {
		return false
	}
	b := r.behaviors[id]
	return b == Honest || b == Malicious
}

// placeLogs gives each of this round's actors an empty log, then hands
// every carried log to its receiver: the receiver's actor slot when it is
// materialized again, an orphan slot otherwise. Carried entries were
// emitted before this round's timers were scheduled, which carry marks.
func (s *sparseState) placeLogs(ids []int, carried []recvLog) {
	s.logs = slices.Grow(s.logs[:0], len(ids))[:len(ids)]
	for i, id := range ids {
		s.logs[i] = recvLog{id: int32(id)}
	}
	s.orphans = s.orphans[:0]
	for _, l := range carried {
		if i, ok := slices.BinarySearch(ids, int(l.id)); ok {
			s.logs[i] = l
		} else {
			s.orphans = append(s.orphans, l)
		}
	}
	s.carry = len(s.msgs)
}

// sparseGossip is the mean-field replacement for Network.Gossip: the
// origin consumes its own message immediately, then every other
// materialized node receives it independently with the epidemic coverage
// probability, after a delay drawn from the round's path-delay table.
// The real network still carries topology, online/relay state and the
// fault overlay — sparseGossip consults all three — but no per-hop push
// fans out, so gossip work is O(materialized), not O(N·fanout). The
// scheduler sees none of the deliveries: each one waits for the first
// phase timer after its arrival (or the drain), which applies it before
// its phase runs.
//
// A plain (not equivocal) vote that a phase timer emits reaches an
// untraced receiver as two sums of the window it arrives in: the
// receiver's delivery count and its seats for the vote's (step, value).
// Sparse votes ship pre-verified, for the running round and with at
// least one seat (see emitVote), so each receiver counts such a vote in
// full, and tally sums are exact in any order: nothing observes when
// within its window it arrived. Every other delivery is appended to its
// receiver's log (see flushLogs): proposals, equivocal votes, payloads
// emitted after a drain, which the next round applies, and deliveries
// to the trace panel, whose arrival times the trace records.
//
// Unmaterialized nodes receive nothing: they hold no tallies to update.
// Their sortition/seed costs accrue in the flat meter passes and their
// outcomes are extrapolated from the probe panel; their verify/relay
// task counts are NOT modelled (sparse task counters cover materialized
// nodes only — document-level approximation, see README).
func (r *Runner) sparseGossip(origin int, msg network.Message) {
	if !r.net.Online(origin) {
		return
	}
	r.handleMessage(origin, msg)
	if !r.net.Relaying(origin) {
		return
	}
	r.meter.of(origin).Gossip++
	s := r.sparse
	if r.err != nil {
		return
	}
	// Only a phase timer's emission has its windows laid out (timers).
	vote, fold := msg.Payload.(*votePayload)
	fold = fold && !vote.equivocal && len(s.timers) > 0
	if fold {
		for k := range s.groupOf {
			s.groupOf[k] = -1
		}
	}
	panel := r.trace.Panel()
	factor := r.net.DelayFactor()
	now := r.engine.Now() - s.base
	idx := uint64(len(s.msgs))
	delivered, logged := false, false
	var last time.Duration // the latest arrival offset
	for i := range s.logs {
		l := &s.logs[i] // actors[i]'s log, which holds its id
		v := int(l.id)
		if v == origin || !r.net.Online(v) {
			continue
		}
		fault := r.net.Fault(origin, v)
		if fault.Drop {
			// Mean-field reading of a severed link: the overlay cut every
			// path between the pair (partitions/eclipses are what overlays
			// script; single-link cuts are below this model's resolution).
			continue
		}
		p := s.reach
		if fault.Loss > 0 {
			p *= 1 - fault.Loss
		}
		if s.rng.Float64() >= p {
			continue
		}
		// The delay scales in two roundings, as a network hop's does; each
		// product is range-checked before it converts.
		d := float64(s.delayTable[s.rng.Intn(len(s.delayTable))]) * factor
		if fault.DelayScale > 1 && d < float64(logSpan) {
			d = float64(time.Duration(d)) * fault.DelayScale
		}
		if !(d < float64(logSpan)) {
			r.fail(&SparseRangeError{Arrival: logSpan})
			return
		}
		at := now + max(time.Duration(d), 0)
		if at >= logSpan {
			r.fail(&SparseRangeError{Arrival: at})
			return
		}
		delivered = true
		last = max(last, at)
		if fold && v >= panel {
			s.foldVote(i, at, vote)
			continue
		}
		if !logged {
			if idx >= logMaxMsgs {
				r.fail(&SparseRangeError{Payloads: len(s.msgs) + 1})
				return
			}
			s.msgs = append(s.msgs, msg.Payload)
			logged = true
		}
		s.push(l, uint64(at)<<logIdxBits|idx)
	}
	if delivered {
		// A drain still ends at the latest arrival, as if each delivery
		// had been an event.
		r.engine.Elide(last - now)
	}
}

// foldVote adds v's delivery to actors[i] at arrival offset at to the
// window of the first timer above the arrival, or the drain's. An
// arrival at a timer's instant folds into the next window: a timer
// applies only the deliveries emitted before the round scheduled it.
func (s *sparseState) foldVote(i int, at time.Duration, v *votePayload) {
	k := s.next
	for k < len(s.timers) && s.timers[k] <= at {
		k++
	}
	w := &s.folds[k]
	g := s.groupOf[k]
	if g < 0 {
		g = s.groupFor(w, v)
		s.groupOf[k] = g
	}
	w.count[i]++
	w.groups[g].seats[i] += int64(v.Credential.SubUsers)
}

// groupFor returns the index of v's (step, value) group in w, adding it
// when absent.
func (s *sparseState) groupFor(w *foldWindow, v *votePayload) int {
	for g := range w.groups {
		if e := &w.groups[g]; e.final == v.Final && e.step == v.Step && e.value == v.Value {
			return g
		}
	}
	var seats []int64
	if n := len(s.seatPool); n > 0 {
		seats, s.seatPool = s.seatPool[n-1], s.seatPool[:n-1]
	}
	seats = slices.Grow(seats, len(s.actors))[:len(s.actors)]
	w.groups = append(w.groups, foldGroup{final: v.Final, step: v.Step, value: v.Value, seats: seats})
	return len(w.groups) - 1
}

// addTimer records a phase timer the round schedules at instant at and
// returns its index, readying its window and the next one, which is the
// drain's until a later timer is added.
func (s *sparseState) addTimer(at time.Duration) int {
	k := len(s.timers)
	s.timers = append(s.timers, at-s.base)
	for len(s.folds) < k+2 {
		s.folds = append(s.folds, foldWindow{})
	}
	for j := k; j < k+2; j++ {
		w := &s.folds[j]
		w.count = slices.Grow(w.count[:0], len(s.actors))[:len(s.actors)]
		clear(w.count)
	}
	s.groupOf = slices.Grow(s.groupOf[:0], k+2)[:k+2]
	return k
}

// push appends key to l.
func (s *sparseState) push(l *recvLog, key uint64) {
	if l.head == nil || l.n == logBlockLen {
		blk := s.freeBlk
		if blk == nil {
			blk = &logBlock{}
		} else {
			s.freeBlk = blk.next
			blk.next = nil
		}
		if l.head == nil {
			l.head = blk
		} else {
			l.tail.next = blk
		}
		l.tail, l.n = blk, 0
	}
	l.tail.keys[l.n] = key
	l.n++
}

// freeLog empties l, returning its blocks to the freelist.
func (s *sparseState) freeLog(l *recvLog) {
	if l.head != nil {
		l.tail.next = s.freeBlk
		s.freeBlk = l.head
	}
	*l = recvLog{id: l.id}
}

// flushDue is the sparse half of phase timer k: before the phase runs,
// it applies the votes folded into its window and each logged delivery
// that one scheduler event per delivery would have run first. That is
// every arrival strictly before the timer, plus the arrivals at its
// instant emitted before the round scheduled its timers (after the
// previous drain, see carry); an entry the round emitted for the timer's
// instant runs after it.
func (r *Runner) flushDue(k int) {
	s := r.sparse
	s.next = k + 1
	r.applyFold(k)
	lim := uint64(math.MaxUint64)
	if off := r.engine.Now() - s.base; off < logSpan {
		lim = uint64(off)<<logIdxBits | uint64(s.carry)
	}
	r.flushLogs(lim)
}

// drainLogs ends a sparse round's drain: it applies the drain's window
// and every delivery still logged, then rebases the logs on the drained
// clock, the next round's start. Deliveries emitted from here on (final
// votes cast during finalizeRoundSparse) are logged and run in the next
// round.
func (r *Runner) drainLogs() {
	s := r.sparse
	r.applyFold(len(s.timers))
	r.flushLogs(math.MaxUint64)
	s.timers, s.next = s.timers[:0], 0
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	s.base = r.engine.Now()
}

// applyFold applies window k's folded votes, actor by actor: a receiver
// that handles them (see sparseReceiver) verifies and counts each one and
// adds each group's seats to its tally. Then it empties the window.
func (r *Runner) applyFold(k int) {
	s := r.sparse
	w := &s.folds[k]
	for i, c := range w.count {
		if c == 0 {
			continue
		}
		w.count[i] = 0
		nd := r.sparseReceiver(s.actors[i].id, int(c))
		if nd == nil {
			continue
		}
		meter := r.meter.of(nd.id)
		meter.VerifyProof += uint64(c)
		meter.CountVotes += uint64(c)
		for g := range w.groups {
			e := &w.groups[g]
			if e.seats[i] == 0 {
				continue
			}
			t := nd.finalTally
			if !e.final {
				t = nd.tally(e.step)
			}
			t.slotFor(e.value).w += float64(e.seats[i])
		}
	}
	for _, e := range w.groups {
		clear(e.seats)
		s.seatPool = append(s.seatPool, e.seats)
	}
	w.groups = w.groups[:0]
}

// flushLogs applies every logged delivery whose key is below lim,
// receiver by receiver, in (arrival, emission) order, the order one
// scheduler event per delivery would run them in.
func (r *Runner) flushLogs(lim uint64) {
	s := r.sparse
	for i := range s.logs {
		r.flushLog(&s.logs[i], lim)
	}
	for i := range s.orphans {
		r.flushLog(&s.orphans[i], lim)
	}
	if len(s.traced) > 0 {
		r.traceDeliveries()
	}
}

// flushLog applies l's entries with keys below lim and keeps the rest in
// the chain, in order.
func (r *Runner) flushLog(l *recvLog, lim uint64) {
	if l.head == nil {
		return
	}
	s := r.sparse
	due := s.due[:0]
	wb, wn := l.head, 0 // write cursor: it never passes the read cursor
	for b := l.head; b != nil; b = b.next {
		n := logBlockLen
		if b == l.tail {
			n = int(l.n)
		}
		for _, k := range b.keys[:n] {
			if k < lim {
				due = append(due, k)
				continue
			}
			if wn == logBlockLen {
				wb, wn = wb.next, 0
			}
			wb.keys[wn] = k
			wn++
		}
	}
	if len(due) == 0 {
		s.due = due
		return
	}
	slices.Sort(due)
	free, last := wb.next, l.tail
	if wn == 0 {
		free, l.head, l.tail, l.n = l.head, nil, nil, 0
	} else {
		wb.next = nil
		l.tail, l.n = wb, int32(wn)
	}
	if free != nil {
		last.next = s.freeBlk
		s.freeBlk = free
	}
	r.sparseDeliver(int(l.id), due)
	s.due = due
}

// sparseReceiver meters n deliveries to id and returns the node that
// handles them, or nil. The receiver's online, relay and behaviour state
// change only at phase timers, so a flush reads them once: an offline
// receiver drops the deliveries, and only a materialized one that is not
// a defector handles them.
func (r *Runner) sparseReceiver(id, n int) *node {
	if !r.net.Online(id) {
		return nil
	}
	if r.net.Relaying(id) {
		// The receiver forwards each message onward (its fan-out is already
		// folded into the mean-field coverage); the relay task is metered at
		// delivery time, when the node's live relay status is known.
		r.meter.of(id).Gossip += uint64(n)
	}
	nd := r.nodes[id]
	if nd == nil || nd.behavior == Selfish || nd.behavior == Faulty {
		// Unmaterialized nodes hold no protocol state; defectors skip
		// verification, block selection and vote counting.
		return nil
	}
	return nd
}

// sparseDeliver hands one receiver's due logged deliveries to the
// protocol handler in order, as the network's delivery callback would
// one at a time, and stages those to the trace panel for tracing.
// Kind/ID are irrelevant past this point (no dedup layer: each pair gets
// at most one delivery per message by construction), so log entries
// carry only the payload.
func (r *Runner) sparseDeliver(id int, due []uint64) {
	s := r.sparse
	if id < r.trace.Panel() && r.net.Online(id) {
		for _, k := range due {
			s.traced = append(s.traced, tracedKey{key: k, id: int32(id)})
		}
	}
	nd := r.sparseReceiver(id, len(due))
	if nd == nil {
		return
	}
	for _, k := range due {
		switch p := s.msgs[k&logIdxMask].(type) {
		case *proposalPayload:
			r.handleProposal(nd, p)
		case *votePayload:
			r.handleVote(nd, p)
		}
	}
}

// traceDeliveries records the flushed deliveries to the trace panel as
// gossip instants at their arrival times, in (arrival, emission) order:
// the order of one event per delivery. One payload's deliveries were
// emitted in receiver id order.
func (r *Runner) traceDeliveries() {
	s := r.sparse
	slices.SortFunc(s.traced, func(a, b tracedKey) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, t := range s.traced {
		r.traceGossip(int(t.id), s.msgs[t.key&logIdxMask], s.base+time.Duration(t.key>>logIdxBits))
	}
	s.traced = s.traced[:0]
}

// finalizeRoundSparse mirrors finalizeRound's outcome rules on the
// materialized set, then extrapolates the unmaterialized population from
// the probe panel and converts ledger commits into desynced-set updates.
func (r *Runner) finalizeRoundSparse(round uint64, lastStep int) RoundReport {
	s := r.sparse
	n := len(r.roundStakes)
	report := RoundReport{
		Round:      round,
		Population: n,
		Degraded:   r.degraded,
	}
	finalQuorum := r.params.ThresholdFinal * r.tauFinalAbs
	quorum := r.params.ThresholdStep * r.tauStepAbs

	for _, nd := range s.actors {
		if r.participates(nd) && !nd.decided {
			r.evaluateBinaryTally(nd, nd.tally(uint64(lastStep)), quorum, uint64(lastStep))
		}
	}

	// Outcome classification for materialized nodes: identical rules to
	// the dense path.
	decisions := make(map[ledger.Hash]int)
	inPanel := make(map[int]struct{}, len(s.panel))
	for _, id := range s.panel {
		inPanel[id] = struct{}{}
	}
	panelParticipants := 0
	panelFinal, panelTentative := 0, 0
	for _, nd := range s.actors {
		outcome := OutcomeNone
		var hash ledger.Hash
		if r.participates(nd) && nd.decided {
			hash = nd.decidedHash
			switch {
			case hash == nd.emptyHash():
				outcome = OutcomeTentative
			case nd.finalTally.weightFor(hash) >= finalQuorum:
				outcome = OutcomeFinal
			default:
				outcome = OutcomeTentative
			}
			if hash != nd.emptyHash() && r.proposalFor(nd, hash) == nil {
				outcome = OutcomeNone
			}
		}
		nd.outcome = outcome
		nd.outcomeHash = hash
		switch outcome {
		case OutcomeFinal:
			report.FinalCount++
			decisions[hash]++
		case OutcomeTentative:
			report.TentativeCount++
			decisions[hash]++
		default:
			report.NoneCount++
		}
		if _, probe := inPanel[nd.id]; probe && r.participatesID(nd.id) {
			panelParticipants++
			switch outcome {
			case OutcomeFinal:
				panelFinal++
			case OutcomeTentative:
				panelTentative++
			}
		}
	}

	// Extrapolate the unmaterialized participants from the panel's
	// outcome fractions, preserving integer-count randomness with
	// sequential binomial splits of the remainder. Non-participants are
	// None by definition, exactly as in the dense path.
	materializedParticipants := 0
	for _, nd := range s.actors {
		if r.participatesID(nd.id) {
			materializedParticipants++
		}
	}
	totalParticipants := 0
	for id := 0; id < n; id++ {
		if r.participatesID(id) {
			totalParticipants++
		}
	}
	rest := int64(totalParticipants - materializedParticipants)
	var restFinal, restTentative int64
	if rest > 0 && panelParticipants > 0 {
		pF := float64(panelFinal) / float64(panelParticipants)
		pT := float64(panelTentative) / float64(panelParticipants)
		restFinal = sortition.Binomial(s.rng, rest, pF)
		if pF < 1 {
			restTentative = sortition.Binomial(s.rng, rest-restFinal, pT/(1-pF))
		}
	}
	report.FinalCount += int(restFinal)
	report.TentativeCount += int(restTentative)
	// Non-participants are None by definition; the materialized ones were
	// already counted None in the actors loop, so only the unmaterialized
	// remainder is added here.
	report.NoneCount += int(rest-restFinal-restTentative) +
		(n - totalParticipants) - (len(s.actors) - materializedParticipants)

	canonicalBlock, decided := r.pickCanonical(round, decisions)
	report.Decided = decided
	if decided {
		report.CanonicalEmpty = canonicalBlock.Empty
		report.CanonicalHash = canonicalBlock.Hash()
	}
	// The canonical append happens AFTER the desync bookkeeping below:
	// blockForSparse reconstructs empty commits from the canonical tip,
	// which must still be the tip the round's blocks were built on —
	// appending first would make every empty-block committer look
	// desynced, and a fully-desynced population can never recover (no
	// synced peers left to serve catch-up).

	// Commits become desynced-set updates. Dense semantics: a node ends
	// the round synced iff its chain equals the advanced canonical chain —
	// with a decision, that means it committed the canonical block; with
	// no decision, that means it committed nothing.
	emptySynced := ledger.Hash{} // sentinel: "committed nothing"
	syncedAfter := func(nd *node) bool {
		committedHash := emptySynced
		if nd.outcome != OutcomeNone {
			if block, ok := r.blockForSparse(nd, nd.outcomeHash); ok {
				committedHash = block.Hash()
			}
		}
		if !nd.synced {
			// Was already behind; committing on top of a stale view never
			// reconverges within the round.
			return false
		}
		if decided {
			return committedHash == report.CanonicalHash
		}
		return committedHash == emptySynced
	}
	newDesyncPanel := 0
	for _, nd := range s.actors {
		// Participation must be read before this id's desynced entry is
		// updated: it is the pre-round status the extrapolation conditions
		// on. Selfish and faulty panel members are excluded — they follow
		// their own recovery rules (catchUpSparse), not the participant
		// sync transition being measured here.
		_, probe := inPanel[nd.id]
		wasParticipant := probe && r.participatesID(nd.id)
		if syncedAfter(nd) {
			delete(s.desynced, nd.id)
		} else {
			s.desynced[nd.id] = struct{}{}
		}
		if wasParticipant {
			if _, behind := s.desynced[nd.id]; behind {
				newDesyncPanel++
			}
		}
	}

	// Extrapolate desync onto the unmaterialized participants: the panel's
	// participants (uniform over the population) measure the synced→behind
	// transition rate this round; a binomial draw fixes how many of the
	// unmaterialized participants went out of sync, and distinct uniform
	// picks decide which. Already-desynced nodes stay desynced.
	if panelParticipants > 0 && rest > 0 {
		pDesync := float64(newDesyncPanel) / float64(panelParticipants)
		want := int(sortition.Binomial(s.rng, rest, pDesync))
		if want > 0 {
			eligible := s.desScratch[:0]
			for id := 0; id < n; id++ {
				if r.nodes[id] != nil {
					continue
				}
				if _, behind := s.desynced[id]; behind {
					continue
				}
				if r.participatesID(id) {
					eligible = append(eligible, id)
				}
			}
			s.desScratch = eligible
			if want > len(eligible) {
				want = len(eligible)
			}
			// Partial Fisher–Yates over the eligible ids.
			for k := 0; k < want; k++ {
				j := k + s.rng.Intn(len(eligible)-k)
				eligible[k], eligible[j] = eligible[j], eligible[k]
				s.desynced[eligible[k]] = struct{}{}
			}
		}
	}

	if decided {
		if err := r.canonical.Append(canonicalBlock); err == nil && !canonicalBlock.Empty {
			r.removePending(canonicalBlock.Txns)
		}
	}
	return report
}

// blockForSparse resolves the block a materialized node committed to; it
// never touches per-node ledgers (there are none).
func (r *Runner) blockForSparse(nd *node, hash ledger.Hash) (ledger.Block, bool) {
	if hash == nd.emptyHash() {
		return ledger.EmptyBlock(nd.round, r.canonical.Tip(), ledger.NextSeed(r.canonical.Seed(), nd.round)), true
	}
	if p := r.proposalFor(nd, hash); p != nil {
		return p.Block, true
	}
	return ledger.Block{}, false
}

// catchUpSparse resynchronises lagging nodes by shrinking the desynced
// set: same recovery rules as the dense path (selfish nodes free-ride,
// honest nodes need an honest synced online peer plus the CatchUpProb
// coin), iterated in sorted id order for determinism.
func (r *Runner) catchUpSparse() {
	s := r.sparse
	if len(s.desynced) == 0 {
		return
	}
	prob := r.params.CatchUpProb
	if r.degraded {
		prob *= 0.2
	}
	ids := s.desScratch[:0]
	for id := range s.desynced {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s.desScratch = ids
	for _, id := range ids {
		if r.behaviors[id] == Selfish {
			delete(s.desynced, id)
			r.resyncs++
			continue
		}
		if !r.net.Online(id) {
			continue
		}
		if s.rng.Float64() >= prob {
			continue
		}
		for _, peer := range r.net.Peers(id) {
			if r.behaviors[peer] != Honest || !r.net.Online(peer) {
				continue
			}
			if _, behind := s.desynced[peer]; behind {
				continue
			}
			delete(s.desynced, id)
			r.resyncs++
			break
		}
	}
}
