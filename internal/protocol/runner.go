package protocol

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// RoleStake identifies one participant of a round together with its stake
// and sortition weight (selected sub-users).
type RoleStake struct {
	ID     int
	Stake  float64
	Weight float64
}

// RoundRoles lists who actually played which role in a round; the reward
// hook receives it to disburse per-round incentives.
type RoundRoles struct {
	Round     uint64
	Leaders   []RoleStake
	Committee []RoleStake
	Others    []RoleStake
}

// RoundReport summarises one simulated round: the per-node outcomes that
// Fig. 3 plots plus bookkeeping about the canonical chain.
//
// Sparse rounds (see SparseMode) carry no per-node Outcomes slice — the
// counts are exact for materialized nodes and panel-extrapolated for the
// rest — so Population, not len(Outcomes), is the fraction denominator
// there. Dense rounds fill both.
type RoundReport struct {
	Round          uint64
	Outcomes       []Outcome
	Population     int // total node count (= len(Outcomes) in dense rounds)
	FinalCount     int
	TentativeCount int
	NoneCount      int
	CanonicalHash  ledger.Hash
	CanonicalEmpty bool
	Decided        bool // some node decided this round
	Degraded       bool // weak-synchrony round
	Desynced       int  // nodes behind the canonical chain after catch-up
}

// population is the denominator for the fraction accessors: the Outcomes
// length when per-node outcomes exist, the Population field otherwise.
func (r RoundReport) population() int {
	if len(r.Outcomes) > 0 {
		return len(r.Outcomes)
	}
	return r.Population
}

// FinalFrac returns the fraction of nodes that extracted a final block.
func (r RoundReport) FinalFrac() float64 {
	return float64(r.FinalCount) / float64(r.population())
}

// TentativeFrac returns the fraction of nodes with a tentative block.
func (r RoundReport) TentativeFrac() float64 {
	return float64(r.TentativeCount) / float64(r.population())
}

// NoneFrac returns the fraction of nodes that extracted no block.
func (r RoundReport) NoneFrac() float64 {
	return float64(r.NoneCount) / float64(r.population())
}

// RewardHook is invoked after every round with the realised roles.
type RewardHook func(roles RoundRoles, report RoundReport)

// Config assembles a protocol simulation.
type Config struct {
	Params    Params
	Stakes    []float64
	Behaviors []Behavior
	Fanout    int
	Delay     network.DelayModel
	// LossProb is the per-hop gossip loss probability; zero selects the
	// default (DefaultLossProb) and a negative value runs lossless.
	LossProb float64
	Seed     int64
	Reward   RewardHook
	// Hooks are the optional adversary seams (see Hooks); the zero value
	// leaves the run bit-for-bit identical to a hook-free build.
	Hooks Hooks
	// Arena optionally recycles construction-heavy Runner state (node
	// tables, key tables, the sortition cache) across consecutive runs of
	// one run-pool worker. See Arena for the ownership and determinism
	// contract; nil builds everything fresh.
	Arena *Arena
	// Weights overrides the round weight source with an external oracle
	// (e.g. a synthetic Zipf/churn profile); its NumNodes must equal
	// len(Stakes). Nil — the default — derives the oracle from the
	// canonical ledger per WeightBackend. An external oracle decouples
	// sortition weights from ledger balances: rewards still accrue on
	// chain but no longer feed back into committee selection.
	Weights weight.Oracle
	// WeightBackend selects the ledger-backed oracle when Weights is nil;
	// the zero value is weight.BackendLedgerDirect, bit-identical to
	// reading the ledger directly.
	WeightBackend weight.Backend
	// Sparse selects the round hot-path implementation: the zero value
	// (SparseAuto) picks the centralized sparse-committee sampler for
	// large populations with absolute taus and the dense per-node sweep
	// otherwise. See SparseMode for the semantics and the equivalence
	// contract.
	Sparse SparseMode
	// Metrics overrides the telemetry bundle per-round deltas flush
	// into; nil — the usual case — resolves obs.DefaultSim(), which is
	// itself nil (all flushes skipped) until obs.Enable is called.
	// Telemetry is side-effect-free: it reads no RNG and mutates no
	// simulation state, so outputs are byte-identical either way.
	Metrics *obs.SimMetrics
	// Trace optionally records Chrome-trace spans of this runner's
	// round/step phases plus gossip deliveries to the trace's bounded
	// node panel, timestamped in virtual time (deterministic). A Trace
	// is single-writer: attach it to one runner (drivers use run 0).
	Trace *obs.Trace
}

// DefaultLossProb is the effective per-hop gossip loss used when
// Config.LossProb is zero. It folds queueing and per-link timeouts into a
// single Bernoulli drop; 0.20 calibrates the simulator so that a 5%
// defection rate leaves roughly 7% of nodes without a block, the
// operating point the paper reports for Fig. 3-(a).
const DefaultLossProb = 0.20

// Runner drives the BA* protocol for a population of simulated nodes.
type Runner struct {
	params    Params
	engine    *sim.Engine
	net       *network.Network
	canonical *ledger.Ledger
	weights   weight.Oracle
	// nodes is id-indexed; in dense mode every entry is live, in sparse
	// mode only the round's materialized nodes are non-nil.
	nodes []*node
	// behaviors is the id-indexed behaviour table, the source of truth in
	// both modes (dense node structs mirror it).
	behaviors                []Behavior
	keys                     []vrf.KeyPair
	rng                      *rand.Rand
	reward                   RewardHook
	pending                  []ledger.Transaction
	nonce                    uint64
	meter                    *costMeter
	degradedFrom, degradedTo uint64 // forced weak-synchrony window

	// sparse is non-nil when this runner uses the centralized
	// sparse-committee path; fanout/lossProb/delay snapshot the gossip
	// parameters its mean-field model needs. err is set when a sparse
	// delivery left the delivery logs' range (see Err).
	sparse   *sparseState
	fanout   int
	lossProb float64
	delay    network.DelayModel
	err      error

	// cache is the per-runner sortition oracle: every Select/Verify in
	// the round hot path walks its memoised threshold tables instead of
	// recomputing binomial PDFs. Runners are single-threaded, so the
	// cache needs no locking; each run-pool worker owns its own Runner.
	cache *sortition.Cache

	// Per-round scratch state, reused across rounds.
	roundStakes []float64
	roundTotal  float64
	roundSeed   ledger.Hash
	tauStepAbs  float64
	tauFinalAbs float64
	degraded    bool
	proposers   map[int]float64 // node -> sub-user weight this round
	voters      map[int]float64

	// Payload arenas: gossip payloads live exactly one round (the engine
	// drains fully before finalisation), so they are slab-allocated and
	// rewound at the top of each round.
	votePool slab[votePayload]
	propPool slab[proposalPayload]
	// props is the round's proposal table: every payload some node
	// accepted, in first-acceptance order, which node.accepted indexes.
	// It empties with propPool.
	props []*proposalPayload

	// outcomeSlab carves the per-report Outcomes slices from large
	// chunks. Reports own disjoint sub-slices — callers may retain them —
	// while the runner allocates once per chunk instead of once per round.
	outcomeSlab []Outcome

	// collectRoles scratch: roleTaken marks nodes already assigned,
	// roleScratch stages the three role groups before the exact-size copy
	// handed to the reward hook.
	roleTaken   []bool
	roleScratch []RoleStake

	// hooks are the adversary seams; all-nil for ordinary runs.
	// stepRevealed stages the nodes whose sortition credential was
	// revealed in the current step, for the StepDone hook; it is only
	// populated when that hook is installed.
	hooks        Hooks
	stepRevealed []int

	// Telemetry. metrics is nil when the registry is disabled; the
	// per-round flush (flushMetrics) is the only place the runner
	// touches its atomics, fed by deltas against the prev* baselines
	// (re-taken at construction because arenas recycle the engine and
	// the sortition cache across runs). resyncs counts catch-up
	// recoveries within the current round; trace is the optional span
	// recorder. None of it reads an RNG or mutates simulation state.
	metrics            *obs.SimMetrics
	trace              *obs.Trace
	prevSched          sim.SchedStats
	prevHits, prevMiss uint64
	resyncs            uint64
}

// NewRunner validates cfg and builds the simulation.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Stakes) < 2 {
		return nil, errors.New("protocol: need at least two nodes")
	}
	if len(cfg.Behaviors) != len(cfg.Stakes) {
		return nil, errors.New("protocol: behaviors and stakes length mismatch")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 5
	}
	if cfg.Delay == nil {
		cfg.Delay = HeavyTailDefault()
	}

	var engine *sim.Engine
	if ar := cfg.Arena; ar != nil && ar.engine != nil {
		engine = ar.engine
		engine.Reset(cfg.Seed)
	} else {
		engine = sim.NewEngine(cfg.Seed)
		if ar != nil {
			ar.engine = engine
		}
	}
	canonical := ledger.Genesis(cfg.Stakes, engine.RNG("ledger.genesis"))

	weights := cfg.Weights
	if weights == nil {
		var err error
		weights, err = weight.ForLedger(canonical, cfg.WeightBackend)
		if err != nil {
			return nil, err
		}
	} else if weights.NumNodes() != len(cfg.Stakes) {
		return nil, fmt.Errorf("protocol: weight oracle covers %d nodes, population has %d",
			weights.NumNodes(), len(cfg.Stakes))
	}

	useSparse := false
	switch cfg.Sparse {
	case SparseOn:
		if !sparseEligible(&cfg) {
			return nil, errSparseTau
		}
		useSparse = true
	case SparseAuto:
		useSparse = len(cfg.Stakes) >= SparseAutoThreshold && sparseEligible(&cfg)
	}

	n := len(cfg.Stakes)
	r := &Runner{
		params:    cfg.Params,
		engine:    engine,
		canonical: canonical,
		weights:   weights,
		rng:       engine.RNG("runner"),
		reward:    cfg.Reward,
		proposers: make(map[int]float64),
		voters:    make(map[int]float64),
		hooks:     cfg.Hooks,
	}
	if ar := cfg.Arena; ar != nil {
		if useSparse {
			r.nodes = ar.takeNodesNil(n)
		} else {
			r.nodes = ar.takeNodes(n)
			r.keys = ar.takeKeys(n)
		}
		r.meter = ar.takeMeter(n)
		r.roleTaken = ar.takeRoleTaken(n)
		r.behaviors = ar.takeBehaviors(n)
		r.cache = ar.cache
	} else {
		r.nodes = make([]*node, n)
		if !useSparse {
			for i := range r.nodes {
				r.nodes[i] = &node{}
			}
			r.keys = make([]vrf.KeyPair, n)
		}
		r.meter = newCostMeter(n)
		r.roleTaken = make([]bool, n)
		r.behaviors = make([]Behavior, n)
		r.cache = sortition.NewCache()
	}
	copy(r.behaviors, cfg.Behaviors)
	if useSparse {
		// No per-node state exists up front: node structs materialize
		// lazily per round (committee ∪ panel), credentials are fabricated
		// centrally (no VRF keys read), and no ledger views are cloned —
		// materialized nodes share the canonical ledger read-only.
		if ar := cfg.Arena; ar != nil {
			if ar.sparse == nil {
				ar.sparse = newSparseState(engine.RNG("protocol.sparse"))
			} else {
				ar.sparse.adopt(engine.RNG("protocol.sparse"))
			}
			r.sparse = ar.sparse
		} else {
			r.sparse = newSparseState(engine.RNG("protocol.sparse"))
		}
		r.sparse.hops = sparseHops(n, cfg.Fanout)
	} else {
		for i, nd := range r.nodes {
			acct, err := canonical.Account(i)
			if err != nil {
				return nil, fmt.Errorf("protocol: genesis account %d: %w", i, err)
			}
			r.keys[i] = acct.Keys
			nd.id = i
			nd.behavior = cfg.Behaviors[i]
			nd.ledger = canonical.CloneView()
			nd.synced = true
		}
	}

	loss := cfg.LossProb
	if loss == 0 {
		loss = DefaultLossProb
	}
	if loss < 0 {
		loss = 0
	}
	netCfg := network.Config{
		N:        len(cfg.Stakes),
		Fanout:   cfg.Fanout,
		Delay:    cfg.Delay,
		LossProb: loss,
	}
	if cfg.Arena != nil {
		netCfg.Arena = &cfg.Arena.net
	}
	net, err := network.New(netCfg, engine, r.handleMessage)
	if err != nil {
		return nil, err
	}
	r.net = net
	r.fanout = cfg.Fanout
	r.lossProb = loss
	r.delay = cfg.Delay
	// The network hints the engine's scheduling horizon for the current
	// delay factor; pre-hint the weak-synchrony worst case too, so the
	// first degraded round never rebuilds the calendar ring mid-run.
	// Sparse rounds schedule only their phase timers.
	if bd, ok := cfg.Delay.(network.BoundedDelay); ok && r.sparse == nil && cfg.Params.AsyncFactor > 1 {
		engine.HintHorizon(time.Duration(float64(bd.MaxDelay()) * cfg.Params.AsyncFactor))
	}
	net.SetRelayObserver(func(nodeID int) {
		r.meter.of(nodeID).Gossip++
	})
	for i, b := range r.behaviors {
		switch b {
		case Selfish:
			net.SetRelay(i, false) // defectors refuse the gossiping task
		case Faulty:
			net.SetOnline(i, false)
		}
	}
	r.metrics = cfg.Metrics
	if r.metrics == nil {
		r.metrics = obs.DefaultSim()
	}
	r.trace = cfg.Trace
	if r.metrics != nil {
		// Baselines for the per-round delta flush: the engine and the
		// sortition cache arrive from the arena with history.
		r.prevSched = engine.SchedStats()
		r.prevHits, r.prevMiss = r.cache.Stats()
		coverage := int64(0)
		if r.sparse != nil {
			coverage = 1
		}
		r.metrics.CoverageMaterializedOnly.Set(coverage)
	}
	return r, nil
}

// HeavyTailDefault is the default per-hop delay model: 20–200 ms with a 4%
// chance of an 8x slower link.
func HeavyTailDefault() network.DelayModel {
	return network.HeavyTailDelay{
		Base:       network.UniformDelay{Min: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		SlowProb:   0.04,
		SlowFactor: 8,
	}
}

// Canonical exposes the authoritative chain (what the synced quorum
// agreed on); experiments read stakes and blocks from it.
func (r *Runner) Canonical() *ledger.Ledger { return r.canonical }

// Weights exposes the runner's weight oracle — the only sanctioned path
// to sortition weights for adversaries, experiments and examples. Query
// it for the runner's current round only: schedule-driven oracles
// enforce monotonic round advance.
func (r *Runner) Weights() weight.Oracle { return r.weights }

// Network exposes the gossip fabric, e.g. for stats.
func (r *Runner) Network() *network.Network { return r.net }

// SubmitTransaction queues a fee-less transfer for inclusion by future
// proposers.
func (r *Runner) SubmitTransaction(from, to int, amount float64) {
	r.SubmitTransactionFee(from, to, amount, 0)
}

// SubmitTransactionFee queues a transfer paying the given fee. Fees are
// deducted from senders when the block commits and accumulate in the
// canonical ledger's fee account (see FeesCollected), from where the
// Foundation's transaction-fee pool is funded.
func (r *Runner) SubmitTransactionFee(from, to int, amount, fee float64) {
	r.nonce++
	r.pending = append(r.pending, ledger.Transaction{
		From: from, To: to, Amount: amount, Fee: fee, Nonce: r.nonce,
	})
}

// FeesCollected returns the cumulative transaction fees committed on the
// canonical chain.
func (r *Runner) FeesCollected() float64 { return r.canonical.FeesCollected() }

// TaskCounts returns a copy of every node's Table II task counters,
// letting callers price a simulation with game.TaskCosts.
func (r *Runner) TaskCounts() []TaskCounts { return r.meter.Snapshot() }

// SetDegradedWindow forces weak synchrony (the AsyncFactor delay
// inflation) for every round in [from, to], on top of the random
// AsyncProb rounds. Experiments use it to reproduce the paper's
// asynchrony-then-recovery spikes deterministically.
func (r *Runner) SetDegradedWindow(from, to uint64) {
	r.degradedFrom, r.degradedTo = from, to
}

// RunRounds simulates n consecutive rounds and returns their reports. A
// run that fails (see Err) stops: the round it failed in and any later
// ones are not returned.
func (r *Runner) RunRounds(n int) []RoundReport {
	reports := make([]RoundReport, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		rep := r.runRound()
		if r.err != nil {
			break
		}
		reports = append(reports, rep)
	}
	return reports
}

// Err reports why RunRounds stopped early: the weight oracle returned a
// weight sortition cannot draw over (a *WeightRangeError), or a sparse
// delivery arrived too long after its round's start, or a round gossiped
// too many payloads, for the delivery logs to key it (a
// *SparseRangeError).
func (r *Runner) Err() error { return r.err }

// fail stops the run: RunRounds returns no further round and Err reports
// err. The first failure sticks.
func (r *Runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// maxWeight bounds a node's weight. Sortition draws over a weight's
// whole units, which float64 holds exactly below 2^53.
const maxWeight = 1 << 53

// WeightRangeError stops a run (see Runner.Err) whose weight oracle
// returned a round's weights that sortition cannot draw over.
type WeightRangeError struct {
	Round uint64
	// Node is the first node whose weight is NaN, negative or at least
	// 2^53; -1 when every weight is in range but their total is not
	// finite.
	Node int
	// Weight is the offending weight, or the total when Node is -1.
	Weight float64
}

func (e *WeightRangeError) Error() string {
	if e.Node < 0 {
		return fmt.Sprintf("protocol: round %d: total weight %v is not finite", e.Round, e.Weight)
	}
	return fmt.Sprintf("protocol: round %d: node %d has weight %v; weights must be finite, non-negative and below 2^53",
		e.Round, e.Node, e.Weight)
}

// CheckWeights returns a *WeightRangeError unless every weight lies in
// [0, 2^53) and total is finite. Runners apply it to each round's
// weights before sortition reads them.
func CheckWeights(round uint64, weights []float64, total float64) error {
	for i, w := range weights {
		if !(w >= 0 && w < maxWeight) {
			return &WeightRangeError{Round: round, Node: i, Weight: w}
		}
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return &WeightRangeError{Round: round, Node: -1, Weight: total}
	}
	return nil
}

const finalVoteStep = 1 << 20 // sortition step id reserved for final votes

func (r *Runner) runRound() RoundReport {
	// Wall-clock reads happen only with metrics attached, keeping the
	// disabled path free of syscalls as well as allocations.
	var wallStart time.Time
	if r.metrics != nil {
		wallStart = time.Now()
	}
	round := r.canonical.Round()
	// Refresh the per-round weight snapshot in place via the oracle;
	// reports and role collections copy values out, so the buffer is
	// private to the round.
	r.roundStakes = r.weights.WeightsInto(round, r.roundStakes)
	r.roundTotal = r.weights.TotalWeight(round)
	if err := CheckWeights(round, r.roundStakes, r.roundTotal); err != nil {
		r.fail(err)
		return RoundReport{}
	}
	if r.metrics != nil {
		r.metrics.WeightRefreshes.Add(1)
		r.metrics.WeightRefreshNS.Add(uint64(time.Since(wallStart)))
	}
	r.roundSeed = r.canonical.Seed()
	r.tauStepAbs = resolveTau(r.params.TauStep, r.roundTotal)
	r.tauFinalAbs = resolveTau(r.params.TauFinal, r.roundTotal)
	r.degraded = r.rng.Float64() < r.params.AsyncProb
	if r.degradedFrom > 0 && round >= r.degradedFrom && round <= r.degradedTo {
		r.degraded = true
	}
	if r.degraded {
		r.net.SetDelayFactor(r.params.AsyncFactor)
	} else {
		r.net.SetDelayFactor(1)
	}
	r.net.ResetSeen()
	// Steady-state stakes need ~3 tables per distinct stake (one per
	// role probability), all reused round after round. When rewards or
	// transactions move stake, τ/W and the per-account w drift, every
	// round mints fresh (stake, prob) keys and old tables become dead
	// weight — drop the whole oracle at a generous high-water mark so
	// memory stays bounded while within-round reuse (12+ steps sharing
	// each table) is preserved.
	if r.cache.Size() > 8*len(r.nodes)+64 {
		r.cache.Reset()
	}
	clear(r.proposers)
	clear(r.voters)
	// The previous round's gossip has fully drained, so its payload slots
	// can be re-issued.
	r.votePool.reset()
	r.propPool.reset()
	r.props = r.props[:0]

	// Adversary phase transitions happen here, before nodes derive seeds
	// or pay sortition costs, so behaviour flips and crash churn apply to
	// the whole round.
	if r.hooks.RoundStart != nil {
		r.hooks.RoundStart(round)
	}

	lastStep := 2 + r.params.MaxBinarySteps
	if r.sparse != nil {
		r.beginRoundSparse(round, lastStep)
	} else {
		for _, nd := range r.nodes {
			nd.synced = nd.ledger.Round() == round && nd.ledger.Tip() == r.canonical.Tip()
			nd.beginRound(round)
			// Every online node derives the round seed; even defectors run
			// sortition to join the network ("paying cost c_so").
			if r.net.Online(nd.id) && nd.behavior != Faulty {
				meter := r.meter.of(nd.id)
				meter.Sortition++
				if nd.behavior != Selfish {
					meter.Seed++
				}
			}
		}
	}

	start := r.engine.Now()
	stepAt := func(s int) time.Duration {
		return start + r.params.ProposalTimeout + time.Duration(s-1)*r.params.StepTimeout
	}
	timer := func(at time.Duration, phase func()) {
		if r.sparse != nil {
			// Sparse deliveries wait in their receivers' logs or in the
			// sums of the timer window they arrive in; a phase first
			// applies those due before it.
			k := r.sparse.addTimer(at)
			r.engine.ScheduleAt(at, func() { r.flushDue(k); phase() })
			return
		}
		r.engine.ScheduleAt(at, phase)
	}
	timer(start, func() { r.proposePhase(round) })
	timer(stepAt(1), func() { r.reductionStep1(round) })
	timer(stepAt(2), func() { r.reductionStep2(round) })
	for s := 3; s <= lastStep; s++ {
		timer(stepAt(s), func() { r.binaryStep(round, uint64(s)) })
	}
	// Drain all gossip; late messages land in tallies but were not counted.
	r.engine.Run(0)
	if r.sparse != nil {
		r.drainLogs()
	}

	var report RoundReport
	if r.sparse != nil {
		report = r.finalizeRoundSparse(round, lastStep)
		r.catchUpSparse()
		report.Desynced = len(r.sparse.desynced)
	} else {
		report = r.finalizeRound(round, lastStep)
		r.catchUp()
		report.Desynced = r.countDesynced()
	}
	if r.reward != nil {
		r.reward(r.collectRoles(round), report)
	}
	if r.hooks.RoundEnd != nil {
		r.hooks.RoundEnd(round, report)
	}
	if r.trace != nil {
		r.traceRound(round, start, stepAt, lastStep)
	}
	if r.metrics != nil {
		r.flushMetrics(&report, lastStep, time.Since(wallStart))
	}
	return report
}

// flushMetrics pushes one round's telemetry deltas into the shared
// registry: a fixed handful of atomic adds per round, so the per-event
// hot paths (scheduler pushes, cache lookups) stay on plain counters.
// Everything flushed here is a pure read of simulation state.
func (r *Runner) flushMetrics(report *RoundReport, lastStep int, wall time.Duration) {
	m := r.metrics
	m.Rounds.Add(1)
	if report.Decided {
		m.RoundsDecided.Add(1)
	}
	if report.Degraded {
		m.RoundsDegraded.Add(1)
	}
	if r.sparse != nil {
		m.RoundsSparse.Add(1)
	} else {
		m.RoundsDense.Add(1)
	}
	m.Steps.Add(uint64(lastStep) + 1) // propose + reduction 1..2 + binary 3..lastStep
	m.Proposers.Add(uint64(len(r.proposers)))
	m.CommitteeSize.Observe(float64(len(r.voters)))
	m.DesyncedNodes.Add(uint64(report.Desynced))
	m.Resyncs.Add(r.resyncs)
	r.resyncs = 0

	sched := r.engine.SchedStats()
	m.EventsScheduled.Add(sched.Scheduled - r.prevSched.Scheduled)
	m.EventsExecuted.Add(sched.Executed - r.prevSched.Executed)
	m.EventsNear.Add(sched.Near - r.prevSched.Near)
	m.EventsFar.Add(sched.Far - r.prevSched.Far)
	m.EventsOverflow.Add(sched.Overflow - r.prevSched.Overflow)
	m.EventsMigrated.Add(sched.Migrated - r.prevSched.Migrated)
	r.prevSched = sched

	hits, misses := r.cache.Stats()
	m.SortitionHits.Add(hits - r.prevHits)
	m.SortitionMisses.Add(misses - r.prevMiss)
	r.prevHits, r.prevMiss = hits, misses

	m.RoundWallNS.Add(uint64(wall))
}

// traceRound records the round's phase spans on the trace's virtual
// timeline: one span for the whole round, one for the proposal window,
// one per committee step window, all on track 0 (gossip instants use
// per-node tracks, see handleMessage). Allocation here is fine — the
// recorder is attached to at most one runner, never to benchmarks.
func (r *Runner) traceRound(round uint64, start time.Duration, stepAt func(int) time.Duration, lastStep int) {
	name := "round " + itoa(round)
	r.trace.Span("round", name, 0, start, r.engine.Now()-start)
	r.trace.Span("phase", "propose", 0, start, r.params.ProposalTimeout)
	for s := 1; s <= lastStep; s++ {
		var step string
		switch s {
		case 1:
			step = "reduction 1"
		case 2:
			step = "reduction 2"
		default:
			step = "binary " + itoa(uint64(s))
		}
		r.trace.Span("phase", step, 0, stepAt(s), r.params.StepTimeout)
	}
}

// itoa formats a uint64 without strconv (matching the runner's
// avoid-fmt-in-round-path convention; only trace recording calls it).
func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func resolveTau(tau, total float64) float64 {
	if tau <= 1 {
		return tau * total
	}
	return tau
}

// roundNodes returns the nodes the phase loops iterate: every node in
// dense mode, only the round's materialized nodes (sorted by id) in
// sparse mode. Sparse is exact here, not an approximation: unmaterialized
// nodes hold no committee seats in any step, and a dense node that never
// wins a lottery has no observable effect in any phase loop.
func (r *Runner) roundNodes() []*node {
	if r.sparse != nil {
		return r.sparse.actors
	}
	return r.nodes
}

// gossip routes a message through the simulated gossip network (dense) or
// the mean-field model (sparse).
func (r *Runner) gossip(origin int, msg network.Message) {
	if r.sparse != nil {
		r.sparseGossip(origin, msg)
		return
	}
	r.net.Gossip(origin, msg)
}

// participates reports whether node nd performs protocol tasks this round.
func (r *Runner) participates(nd *node) bool {
	if !r.net.Online(nd.id) || !nd.synced {
		return false
	}
	return nd.behavior == Honest || nd.behavior == Malicious
}

func (r *Runner) sortitionParams(role sortition.Role, round, step uint64, tau float64) sortition.Params {
	return sortition.Params{
		Seed:       [32]byte(r.roundSeed),
		Role:       role,
		Round:      round,
		Step:       step,
		Tau:        tau,
		TotalStake: r.roundTotal,
	}
}

// --- Phase actions -------------------------------------------------------

func (r *Runner) proposePhase(round uint64) {
	for _, nd := range r.roundNodes() {
		if !r.participates(nd) {
			continue
		}
		p := r.sortitionParams(sortition.RoleProposer, round, 0, r.params.TauProposer)
		var res sortition.Result
		if r.sparse != nil {
			seats := r.sparse.committeeFor(0).seats[nd.id]
			if seats == 0 {
				continue
			}
			res = sortition.Pseudo(p, nd.id, seats)
		} else {
			var err error
			res, err = r.cache.Select(r.keys[nd.id].Private, r.roundStakes[nd.id], p)
			if err != nil || !res.Selected() {
				continue
			}
		}
		r.proposers[nd.id] = float64(res.SubUsers)
		r.meter.of(nd.id).Propose++
		r.reveal(nd.id)
		fan := 1
		if r.hooks.ProposalFan != nil {
			fan = r.hooks.ProposalFan(nd.id, round)
		}
		if fan < 1 {
			continue // withheld proposal: selected and assembled, never sent
		}
		block := r.assembleBlock(nd, round)
		for v := 0; v < fan; v++ {
			variant := block
			if v > 0 {
				// Equivocating variants perturb the seed field, which the
				// block hash covers but chain validation does not pin, so
				// each variant is a distinct structurally-valid block under
				// the same proposer credential.
				variant.Seed[0] ^= byte(v)
			}
			payload := r.propPool.take()
			*payload = proposalPayload{
				Block:      variant,
				BlockHash:  variant.Hash(),
				Credential: res,
				Proposer:   nd.id,
			}
			if r.sparse != nil {
				// Pseudo-credentials carry no verifiable proof (no VRF keys
				// exist in sparse mode); emission is the trust anchor, so the
				// payload ships pre-verified and receivers skip cache.Verify.
				payload.verdict = memoValid
			}
			r.gossip(nd.id, network.Message{
				ID:      proposalVariantID(round, nd.id, v),
				Kind:    network.KindProposal,
				Origin:  nd.id,
				Payload: payload,
			})
		}
	}
	r.stepDone(round, 0)
}

// reveal stages a node whose sortition credential just became public, for
// the StepDone adaptive-corruption seam. No-op unless the hook is set.
func (r *Runner) reveal(id int) {
	if r.hooks.StepDone != nil {
		r.stepRevealed = append(r.stepRevealed, id)
	}
}

// stepDone flushes the revealed set to the StepDone hook.
func (r *Runner) stepDone(round, step uint64) {
	if r.hooks.StepDone == nil {
		return
	}
	r.hooks.StepDone(round, step, r.stepRevealed)
	r.stepRevealed = r.stepRevealed[:0]
}

// assembleBlock packs pending valid transactions into a proposal. A
// malicious proposer produces a structurally valid but empty-payload block
// with a perturbed seed lineage, modelling an adversarial proposal.
func (r *Runner) assembleBlock(nd *node, round uint64) ledger.Block {
	block := ledger.Block{
		Round:    round,
		Prev:     nd.ledger.Tip(),
		Seed:     ledger.NextSeed(nd.ledger.Seed(), round),
		Proposer: nd.id,
	}
	if nd.behavior == Malicious {
		return block // valid-but-empty adversarial payload
	}
	count := 0
	for _, tx := range r.pending {
		if count >= r.params.MaxTxPerBlock {
			break
		}
		r.meter.of(nd.id).Verify++
		if nd.ledger.ValidateTx(tx) == nil {
			block.Txns = append(block.Txns, tx)
			count++
		}
	}
	return block
}

func (r *Runner) reductionStep1(round uint64) {
	if r.sparse != nil {
		// Flat meter pass: every participant pays the block-selection task
		// exactly as the dense sweep meters it, materialized or not.
		for id := range r.nodes {
			if r.participatesID(id) {
				r.meter.of(id).SelectBlock++
			}
		}
	}
	for _, nd := range r.roundNodes() {
		if !r.participates(nd) {
			continue
		}
		value := nd.emptyHash()
		if nd.bestProposal != nil {
			value = nd.bestProposal.BlockHash
		}
		if r.sparse == nil {
			r.meter.of(nd.id).SelectBlock++
		}
		r.castVote(nd, round, 1, false, value)
	}
	r.stepDone(round, 1)
}

func (r *Runner) reductionStep2(round uint64) {
	quorum := r.params.ThresholdStep * r.tauStepAbs
	for _, nd := range r.roundNodes() {
		if !r.participates(nd) {
			continue
		}
		value := nd.emptyHash()
		if leader, w := nd.tally(1).leader(); w >= quorum && leader != nd.emptyHash() {
			value = leader
		}
		r.castVote(nd, round, 2, false, value)
	}
	r.stepDone(round, 2)
}

// binaryStep first evaluates the previous step's tally and then, if the
// node has not yet decided, casts the next BinaryBA* vote.
func (r *Runner) binaryStep(round, step uint64) {
	quorum := r.params.ThresholdStep * r.tauStepAbs
	for _, nd := range r.roundNodes() {
		if !r.participates(nd) || nd.decided {
			continue
		}
		prev := nd.tally(step - 1)
		empty := nd.emptyHash()
		if step == 3 {
			// Entering BinaryBA*: adopt the reduction output.
			nd.value = empty
			if leader, w := prev.leader(); w >= quorum && leader != empty {
				nd.value = leader
			}
		} else {
			r.evaluateBinaryTally(nd, prev, quorum, step-1)
			if nd.decided {
				continue
			}
		}
		r.castVote(nd, round, step, false, nd.value)
	}
	r.stepDone(round, step)
}

// evaluateBinaryTally applies the BinaryBA* decision rule to one tally.
func (r *Runner) evaluateBinaryTally(nd *node, t *stepTally, quorum float64, step uint64) {
	empty := nd.emptyHash()
	var bestNonEmpty ledger.Hash
	bestW := 0.0
	for i := range t.slots {
		e := &t.slots[i]
		if !e.live || e.key == empty {
			continue
		}
		if e.w > bestW || (e.w == bestW && hashLess(e.key, bestNonEmpty)) {
			bestNonEmpty, bestW = e.key, e.w
		}
	}
	switch {
	case bestW >= quorum:
		nd.decided = true
		nd.decidedHash = bestNonEmpty
		nd.decidedStep = step
		if step == 3 {
			// Completed in the first BinaryBA* step: vote in the final
			// committee so the network can declare the block FINAL.
			r.castFinalVote(nd, nd.round, bestNonEmpty)
		}
	case t.weightFor(empty) >= quorum:
		nd.decided = true
		nd.decidedHash = empty
		nd.decidedStep = step
	}
}

func (r *Runner) castVote(nd *node, round, step uint64, final bool, value ledger.Hash) {
	tau := r.tauStepAbs
	role := sortition.RoleCommittee
	sortStep := step
	if final {
		tau = r.tauFinalAbs
		role = sortition.RoleFinal
		sortStep = finalVoteStep
	}
	p := r.sortitionParams(role, round, sortStep, tau)
	var res sortition.Result
	if r.sparse != nil {
		seats := r.sparse.committeeFor(sortStep).seats[nd.id]
		if seats == 0 {
			return
		}
		res = sortition.Pseudo(p, nd.id, seats)
	} else {
		var err error
		res, err = r.cache.Select(r.keys[nd.id].Private, r.roundStakes[nd.id], p)
		if err != nil || !res.Selected() {
			return
		}
	}
	r.voters[nd.id] = r.voters[nd.id] + float64(res.SubUsers)
	r.meter.of(nd.id).Vote++
	r.reveal(nd.id)
	if nd.behavior == Malicious {
		value = r.maliciousValue(nd, value)
	}
	if r.hooks.VoteValues != nil {
		if values, ok := r.hooks.VoteValues(nd.id, round, step, final, value, nd.emptyHash()); ok {
			// Equivocation (or, for an empty slice, selective silence): one
			// vote per value, each under its own message ID but the same
			// revealed credential.
			equivocal := len(values) > 1
			for v, val := range values {
				r.emitVote(nd, round, step, final, val, v, equivocal, res)
			}
			return
		}
	}
	r.emitVote(nd, round, step, final, value, 0, false, res)
}

// emitVote gossips one committee vote. variant distinguishes equivocating
// votes from the same (round, step, voter); variant 0 reproduces the
// historical message ID byte-for-byte. equivocal marks a vote that has
// siblings, so tallies count only the first of them to arrive.
func (r *Runner) emitVote(nd *node, round, step uint64, final bool, value ledger.Hash, variant int, equivocal bool, res sortition.Result) {
	payload := r.votePool.take()
	*payload = votePayload{
		Round:      round,
		Step:       step,
		Final:      final,
		Value:      value,
		Voter:      nd.id,
		Credential: res,
		equivocal:  equivocal,
	}
	if r.sparse != nil {
		// Pseudo-credentials are unverifiable; emission is the trust anchor
		// (see proposePhase).
		payload.verdict = memoValid
	}
	r.gossip(nd.id, network.Message{
		ID:      voteVariantID(round, step, final, nd.id, variant),
		Kind:    network.KindVote,
		Origin:  nd.id,
		Payload: payload,
	})
}

func (r *Runner) castFinalVote(nd *node, round uint64, value ledger.Hash) {
	r.castVote(nd, round, finalVoteStep, true, value)
}

// maliciousValue votes adversarially: against whatever the node would
// honestly support. When the honest vote backs a block, it votes for the
// empty hash; when the honest vote is empty, it backs the smallest
// observed block. The choice is a pure function of node state — an
// earlier version picked "any" block via map iteration, whose randomised
// order made runs irreproducible.
func (r *Runner) maliciousValue(nd *node, honest ledger.Hash) ledger.Hash {
	empty := nd.emptyHash()
	if honest != empty {
		return empty
	}
	var best ledger.Hash
	found := false
	for _, i := range nd.accepted {
		if h := r.props[i].BlockHash; !found || hashLess(h, best) {
			best, found = h, true
		}
	}
	if !found {
		return empty
	}
	return best
}

// --- Message handling ----------------------------------------------------

func (r *Runner) handleMessage(nodeID int, msg network.Message) {
	if nodeID < r.trace.Panel() {
		r.traceGossip(nodeID, msg.Payload, r.engine.Now())
	}
	nd := r.nodes[nodeID]
	if nd == nil {
		// Sparse mode only materializes committee ∪ panel; nothing else can
		// be addressed, but the guard keeps the invariant local.
		return
	}
	if nd.behavior == Selfish || nd.behavior == Faulty {
		// Defectors skip verification, block selection and vote counting;
		// faulty nodes are offline anyway.
		return
	}
	switch payload := msg.Payload.(type) {
	case *proposalPayload:
		r.handleProposal(nd, payload)
	case *votePayload:
		r.handleVote(nd, payload)
	}
}

// traceGossip records one delivery to a trace panel node as a gossip
// instant at its arrival time, named from the payload: mean-field
// deliveries carry no Kind.
func (r *Runner) traceGossip(nodeID int, payload any, at time.Duration) {
	name := "vote"
	if _, ok := payload.(*proposalPayload); ok {
		name = "proposal"
	}
	r.trace.Instant("gossip", name, nodeID, at)
}

func (r *Runner) handleProposal(nd *node, p *proposalPayload) {
	if p.Block.Round != nd.round {
		return
	}
	r.meter.of(nd.id).VerifyProof++
	if p.verdict == memoUnknown {
		// Credential and body-hash integrity are both pure in the shared
		// payload, so one verdict covers every delivery of this proposal.
		params := r.sortitionParams(sortition.RoleProposer, nd.round, 0, r.params.TauProposer)
		if r.cache.Verify(r.keys[p.Proposer].Public, r.roundStakes[p.Proposer], params, p.Credential) &&
			p.Block.Hash() == p.BlockHash {
			p.verdict = memoValid
		} else {
			p.verdict = memoInvalid
		}
	}
	if p.verdict != memoValid {
		return
	}
	if nd.synced && nd.ledger.ValidateBlock(p.Block) != nil {
		return
	}
	nd.observeProposal(p, r.accept(p))
}

// accept returns p's index in the round's proposal table, adding p the
// first time any node accepts it this round. The index p stores may be
// left over from an earlier round (payload slots are reused), so it
// counts only while the table entry it names is still p.
func (r *Runner) accept(p *proposalPayload) int32 {
	if int(p.slot) < len(r.props) && r.props[p.slot] == p {
		return p.slot
	}
	p.slot = int32(len(r.props))
	r.props = append(r.props, p)
	return p.slot
}

// proposalFor returns the proposal for the block with the given hash
// among those nd accepted this round, or nil.
func (r *Runner) proposalFor(nd *node, hash ledger.Hash) *proposalPayload {
	for _, i := range nd.accepted {
		if p := r.props[i]; p.BlockHash == hash {
			return p
		}
	}
	return nil
}

func (r *Runner) handleVote(nd *node, v *votePayload) {
	if v.Round != nd.round {
		return
	}
	tau := r.tauStepAbs
	role := sortition.RoleCommittee
	sortStep := v.Step
	if v.Final {
		tau = r.tauFinalAbs
		role = sortition.RoleFinal
		sortStep = finalVoteStep
	}
	meter := r.meter.of(nd.id)
	meter.VerifyProof++
	if v.verdict == memoUnknown {
		params := r.sortitionParams(role, v.Round, sortStep, tau)
		if r.cache.Verify(r.keys[v.Voter].Public, r.roundStakes[v.Voter], params, v.Credential) {
			v.verdict = memoValid
		} else {
			v.verdict = memoInvalid
		}
	}
	if v.verdict != memoValid {
		return
	}
	meter.CountVotes++
	nd.observeVote(v)
}

// --- Round finalisation --------------------------------------------------

// takeOutcomes carves one round's Outcomes slice from the slab. The
// returned slice is full-length, zeroed, capacity-clipped, and never
// re-issued, so reports can be retained by callers indefinitely.
func (r *Runner) takeOutcomes() []Outcome {
	n := len(r.nodes)
	if len(r.outcomeSlab) < n {
		const roundsPerChunk = 64
		r.outcomeSlab = make([]Outcome, n*roundsPerChunk)
	}
	out := r.outcomeSlab[:n:n]
	r.outcomeSlab = r.outcomeSlab[n:]
	return out
}

func (r *Runner) finalizeRound(round uint64, lastStep int) RoundReport {
	report := RoundReport{
		Round:      round,
		Outcomes:   r.takeOutcomes(),
		Population: len(r.nodes),
		Degraded:   r.degraded,
	}
	finalQuorum := r.params.ThresholdFinal * r.tauFinalAbs
	quorum := r.params.ThresholdStep * r.tauStepAbs

	// Give undecided nodes one last look at the final step's tally.
	for _, nd := range r.nodes {
		if r.participates(nd) && !nd.decided {
			r.evaluateBinaryTally(nd, nd.tally(uint64(lastStep)), quorum, uint64(lastStep))
		}
	}

	decisions := make(map[ledger.Hash]int)
	for _, nd := range r.nodes {
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
				// Knows the winning hash but never received the block body.
				outcome = OutcomeNone
			}
		}
		nd.outcome = outcome
		nd.outcomeHash = hash
		report.Outcomes[nd.id] = outcome
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
	}

	canonicalBlock, decided := r.pickCanonical(round, decisions)
	report.Decided = decided
	if decided {
		// Only advance the canonical chain when some node actually reached
		// agreement; otherwise BA* stalls and the round is retried, which is
		// Algorand's liveness behaviour under lost synchrony.
		report.CanonicalEmpty = canonicalBlock.Empty
		report.CanonicalHash = canonicalBlock.Hash()
		if err := r.canonical.Append(canonicalBlock); err == nil && !canonicalBlock.Empty {
			r.removePending(canonicalBlock.Txns)
		}
	}

	// Nodes commit what they decided; divergent or missing commits leave
	// the node desynchronised until catch-up.
	for _, nd := range r.nodes {
		if nd.outcome == OutcomeNone {
			continue
		}
		block, ok := r.blockFor(nd, nd.outcomeHash)
		if !ok {
			continue
		}
		_ = nd.ledger.Append(block)
	}
	return report
}

// pickCanonical selects the network-wide agreed block: the plurality
// decision among the round's nodes (the materialized set in sparse
// mode), falling back to the empty block when nobody decided anything.
func (r *Runner) pickCanonical(round uint64, decisions map[ledger.Hash]int) (ledger.Block, bool) {
	empty := ledger.EmptyBlock(round, r.canonical.Tip(), ledger.NextSeed(r.canonical.Seed(), round))
	var bestHash ledger.Hash
	bestCount := 0
	for h, c := range decisions {
		if c > bestCount || (c == bestCount && hashLess(h, bestHash)) {
			bestHash, bestCount = h, c
		}
	}
	if bestCount == 0 {
		return empty, false
	}
	if bestHash == empty.Hash() {
		return empty, true
	}
	for _, nd := range r.roundNodes() {
		if p := r.proposalFor(nd, bestHash); p != nil {
			return p.Block, true
		}
	}
	return empty, false
}

func (r *Runner) blockFor(nd *node, hash ledger.Hash) (ledger.Block, bool) {
	if hash == nd.emptyHash() {
		return ledger.EmptyBlock(nd.round, nd.ledger.Tip(), ledger.NextSeed(nd.ledger.Seed(), nd.round)), true
	}
	if p := r.proposalFor(nd, hash); p != nil {
		return p.Block, true
	}
	return ledger.Block{}, false
}

func (r *Runner) removePending(committed []ledger.Transaction) {
	if len(committed) == 0 {
		return
	}
	drop := make(map[uint64]struct{}, len(committed))
	for _, tx := range committed {
		drop[tx.Nonce] = struct{}{}
	}
	kept := r.pending[:0]
	for _, tx := range r.pending {
		if _, gone := drop[tx.Nonce]; !gone {
			kept = append(kept, tx)
		}
	}
	r.pending = kept
}

// catchUp lets lagging nodes resynchronise from healthy peers. Selfish
// nodes free-ride: they passively accept the chain they heard about.
// Honest nodes succeed with CatchUpProb when some outbound peer is synced
// and online; degraded rounds make recovery five times less likely,
// modelling the paper's weak-synchrony periods.
func (r *Runner) catchUp() {
	prob := r.params.CatchUpProb
	if r.degraded {
		prob *= 0.2
	}
	for _, nd := range r.nodes {
		behind := nd.ledger.Round() != r.canonical.Round() || nd.ledger.Tip() != r.canonical.Tip()
		if !behind {
			continue
		}
		if nd.behavior == Selfish {
			nd.ledger = r.canonical.CloneView()
			r.resyncs++
			continue
		}
		if !r.net.Online(nd.id) {
			continue
		}
		if r.rng.Float64() >= prob {
			continue
		}
		for _, peer := range r.net.Peers(nd.id) {
			p := r.nodes[peer]
			// Only honest, synced, online peers serve catch-up data;
			// defectors free-ride but do not help others recover.
			if p.behavior != Honest || !r.net.Online(peer) {
				continue
			}
			if p.ledger.Round() == r.canonical.Round() && p.ledger.Tip() == r.canonical.Tip() {
				nd.ledger = r.canonical.CloneView()
				r.resyncs++
				break
			}
		}
	}
}

func (r *Runner) countDesynced() int {
	n := 0
	for _, nd := range r.nodes {
		if nd.ledger.Round() != r.canonical.Round() || nd.ledger.Tip() != r.canonical.Tip() {
			n++
		}
	}
	return n
}

// collectRoles reports who filled each role this round; nodes that neither
// proposed nor voted are "others" (set K in the paper). Role groups are
// staged in reusable scratch and copied into one exact-size allocation,
// so hooks may retain the RoundRoles value without aliasing later rounds.
func (r *Runner) collectRoles(round uint64) RoundRoles {
	roles := RoundRoles{Round: round}
	clear(r.roleTaken)
	scratch := r.roleScratch[:0]
	for id, w := range r.proposers {
		scratch = append(scratch, RoleStake{ID: id, Stake: r.roundStakes[id], Weight: w})
		r.roleTaken[id] = true
	}
	nLeaders := len(scratch)
	for id, w := range r.voters {
		if r.roleTaken[id] {
			continue
		}
		scratch = append(scratch, RoleStake{ID: id, Stake: r.roundStakes[id], Weight: w})
		r.roleTaken[id] = true
	}
	nCommittee := len(scratch) - nLeaders
	for id := range r.nodes {
		if r.roleTaken[id] || !r.net.Online(id) {
			continue
		}
		scratch = append(scratch, RoleStake{ID: id, Stake: r.roundStakes[id], Weight: 0})
	}
	r.roleScratch = scratch

	buf := make([]RoleStake, len(scratch))
	copy(buf, scratch)
	roles.Leaders = buf[:nLeaders:nLeaders]
	roles.Committee = buf[nLeaders : nLeaders+nCommittee : nLeaders+nCommittee]
	roles.Others = buf[nLeaders+nCommittee:]
	sortRoleStakes(roles.Leaders)
	sortRoleStakes(roles.Committee)
	sortRoleStakes(roles.Others)
	return roles
}

func sortRoleStakes(rs []RoleStake) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].ID < rs[j-1].ID; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// emptyHash is the node's hash of this round's empty block, derived from
// its own chain view so that synced nodes agree on it. The value is
// computed once per round in beginRound; the chain view it derives from
// cannot change until finalisation.
func (nd *node) emptyHash() ledger.Hash {
	return nd.emptyH
}
