package protocol

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/network"
)

// sparseParams returns DefaultParams with absolute committee taus, the
// sparse-eligible configuration.
func sparseParams() Params {
	p := DefaultParams()
	p.TauStep = 60
	p.TauFinal = 70
	p.AsyncProb = 0 // keep equivalence comparisons out of degraded rounds
	return p
}

func sparseTestConfig(n int, seed int64, mode SparseMode) Config {
	return Config{
		Params:    sparseParams(),
		Stakes:    testStakes(n),
		Behaviors: behaviorsOf(n, Honest),
		Fanout:    5,
		Seed:      seed,
		Sparse:    mode,
	}
}

// reportInvariants checks the count bookkeeping every report must satisfy
// regardless of path: the three outcome classes partition the population.
func reportInvariants(t *testing.T, rep RoundReport, n int) {
	t.Helper()
	if got := rep.FinalCount + rep.TentativeCount + rep.NoneCount; got != n {
		t.Fatalf("round %d: outcome counts sum to %d, population is %d", rep.Round, got, n)
	}
	if rep.population() != n {
		t.Fatalf("round %d: population() = %d, want %d", rep.Round, rep.population(), n)
	}
	if rep.Desynced < 0 || rep.Desynced > n {
		t.Fatalf("round %d: desynced = %d out of range", rep.Round, rep.Desynced)
	}
}

func TestSparseOnRejectsFractionalTau(t *testing.T) {
	cfg := sparseTestConfig(100, 1, SparseOn)
	cfg.Params.TauStep = 0.35 // fractional: committees are O(N), nothing sparse
	if _, err := NewRunner(cfg); !errors.Is(err, errSparseTau) {
		t.Fatalf("SparseOn with fractional tau: err = %v, want errSparseTau", err)
	}
}

func TestSparseAutoSmallPopulationStaysDense(t *testing.T) {
	r, err := NewRunner(sparseTestConfig(100, 2, SparseAuto))
	if err != nil {
		t.Fatal(err)
	}
	if r.sparse != nil {
		t.Fatal("SparseAuto picked the sparse path below the threshold")
	}
	rep := r.runRound()
	if len(rep.Outcomes) != 100 {
		t.Fatalf("dense round lost per-node outcomes: len = %d", len(rep.Outcomes))
	}
	reportInvariants(t, rep, 100)
}

// TestSeatNodeMatchesLinearScan pins the one seat-to-node mapping of the
// sparse committee sampler against the obvious linear inversion over
// whole stake units, for every unit: fractional stakes count their whole
// units only, and zero-unit nodes own no seat. A second, shorter
// population then refreshes the same prefix array.
func TestSeatNodeMatchesLinearScan(t *testing.T) {
	s := newSparseState(rand.New(rand.NewSource(5)))
	for _, stakes := range [][]float64{
		{3, 0, 0, 2.7, 0.9, 1, 5, 0, 4.2},
		{0, 1, 2},
	} {
		s.refreshWeights(stakes)
		var owners []int
		for i, w := range stakes {
			for u := int64(0); u < int64(w); u++ {
				owners = append(owners, i)
			}
		}
		if s.trials != int64(len(owners)) {
			t.Fatalf("stakes %v: trials = %d, want %d whole units", stakes, s.trials, len(owners))
		}
		for unit, want := range owners {
			if got := s.seatNode(int64(unit)); got != want {
				t.Fatalf("stakes %v: seatNode(%d) = %d, want %d", stakes, unit, got, want)
			}
		}
	}
}

// TestSparseCommitteeLaw pins the centralized sampler to the dense joint
// law: with S ~ Binomial(trials, p) total seats split over distinct stake
// units, every node's seat count must behave as an independent
// Binomial(int(stake_i), p) — mean seats proportional to stake, never more
// seats than whole stake units.
func TestSparseCommitteeLaw(t *testing.T) {
	const (
		nNodes = 400
		rounds = 3000
		tau    = 50.0
	)
	stakes := testStakes(nNodes)
	total := 0.0
	for _, w := range stakes {
		total += w
	}
	s := newSparseState(rand.New(rand.NewSource(7)))
	s.refreshWeights(stakes)
	p := tau / total

	seatSum := make([]float64, nNodes)
	totalSeats := 0.0
	for i := 0; i < rounds; i++ {
		c := s.sampleCommittee(tau, total)
		for id, seats := range c.seats {
			if seats > int(stakes[id]) {
				t.Fatalf("node %d drew %d seats with only %d stake units", id, seats, int(stakes[id]))
			}
			seatSum[id] += float64(seats)
			totalSeats += float64(seats)
		}
		c.reset()
		s.comPool = append(s.comPool, c)
	}

	// Total seats: mean within 5 standard errors of trials·p.
	meanTotal := totalSeats / rounds
	wantTotal := float64(s.trials) * p
	seTotal := math.Sqrt(float64(s.trials) * p * (1 - p) / rounds)
	if math.Abs(meanTotal-wantTotal) > 5*seTotal {
		t.Fatalf("mean committee size %.3f, want %.3f ± %.3f", meanTotal, wantTotal, 5*seTotal)
	}
	// Per-node seats: spot-check the extreme stakes at 5 standard errors.
	for _, id := range []int{0, 1, nNodes / 2, nNodes - 1} {
		w := float64(int(stakes[id]))
		mean := seatSum[id] / rounds
		want := w * p
		se := math.Sqrt(w * p * (1 - p) / rounds)
		if math.Abs(mean-want) > 5*se {
			t.Fatalf("node %d: mean seats %.4f, want %.4f ± %.4f", id, mean, want, 5*se)
		}
	}
}

// TestSparseDenseEquivalence runs the same honest population through both
// paths and requires the aggregate round statistics to agree: the sparse
// rewrite is a performance restructuring, not a behaviour change.
func TestSparseDenseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		n      = 2000
		rounds = 30
	)
	run := func(mode SparseMode) (finalFrac, decidedFrac float64) {
		r, err := NewRunner(sparseTestConfig(n, 11, mode))
		if err != nil {
			t.Fatal(err)
		}
		if mode == SparseOn && r.sparse == nil {
			t.Fatal("SparseOn did not select the sparse path")
		}
		if mode == SparseOff && r.sparse != nil {
			t.Fatal("SparseOff selected the sparse path")
		}
		for _, rep := range r.RunRounds(rounds) {
			reportInvariants(t, rep, n)
			finalFrac += rep.FinalFrac()
			if rep.Decided {
				decidedFrac++
			}
		}
		return finalFrac / rounds, decidedFrac / rounds
	}
	denseFinal, denseDecided := run(SparseOff)
	sparseFinal, sparseDecided := run(SparseOn)
	if math.Abs(denseFinal-sparseFinal) > 0.10 {
		t.Errorf("final fractions diverge: dense %.3f, sparse %.3f", denseFinal, sparseFinal)
	}
	if math.Abs(denseDecided-sparseDecided) > 0.15 {
		t.Errorf("decided fractions diverge: dense %.3f, sparse %.3f", denseDecided, sparseDecided)
	}
}

func TestSparseAutoLargePopulation(t *testing.T) {
	n := SparseAutoThreshold + 1000
	r, err := NewRunner(sparseTestConfig(n, 3, SparseAuto))
	if err != nil {
		t.Fatal(err)
	}
	if r.sparse == nil {
		t.Fatal("SparseAuto kept the dense path above the threshold")
	}
	decided := 0
	for _, rep := range r.RunRounds(5) {
		reportInvariants(t, rep, n)
		if rep.Outcomes != nil {
			t.Fatal("sparse round carried per-node outcomes")
		}
		if rep.Decided {
			decided++
		}
	}
	if decided < 3 {
		t.Fatalf("only %d/5 sparse rounds decided", decided)
	}
	if r.Canonical().Round() < 3 {
		t.Fatalf("canonical chain at round %d after 5 rounds", r.Canonical().Round())
	}
}

// TestSparseDeterminism: identical configurations replay identically, and
// an arena-recycled second run is bit-for-bit the same as a fresh one.
func TestSparseDeterminism(t *testing.T) {
	const n, rounds = 5000, 4
	run := func(ar *Arena) []RoundReport {
		cfg := sparseTestConfig(n, 21, SparseOn)
		cfg.Arena = ar
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.RunRounds(rounds)
	}
	base := run(nil)
	ar := NewArena()
	warm := run(ar)     // populates the arena pools
	recycled := run(ar) // replays on recycled state
	for i := range base {
		for name, got := range map[string][]RoundReport{"fresh": warm, "arena-recycled": recycled} {
			g, b := got[i], base[i]
			if g.Decided != b.Decided || g.CanonicalHash != b.CanonicalHash ||
				g.FinalCount != b.FinalCount || g.TentativeCount != b.TentativeCount ||
				g.NoneCount != b.NoneCount || g.Desynced != b.Desynced {
				t.Fatalf("%s run diverges at round %d: %+v vs %+v", name, i, g, b)
			}
		}
	}
}

// TestSparseEmptyRoundKeepsSync pins the empty-block commit path: a
// degraded round that decides the empty block must leave its committers
// synced. The canonical append used to run before the desync
// bookkeeping, so the empty block every node rebuilt from the (already
// advanced) canonical tip hashed differently from the decided one — the
// whole population went desynced at once, and with no synced peers left
// the catch-up path could never recover a single node.
func TestSparseEmptyRoundKeepsSync(t *testing.T) {
	const n = 3000
	cfg := sparseTestConfig(n, 17, SparseOn)
	cfg.Params.AsyncProb = 1 // every round degraded: empty decisions dominate
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emptyDecided := 0
	for _, rep := range r.RunRounds(6) {
		reportInvariants(t, rep, n)
		if rep.Decided && rep.CanonicalEmpty {
			emptyDecided++
		}
		if rep.Desynced > n/2 {
			t.Fatalf("round %d: %d/%d nodes desynced after an %v round — empty commits are not reconverging",
				rep.Round, rep.Desynced, n, map[bool]string{true: "empty-decided", false: "undecided"}[rep.Decided && rep.CanonicalEmpty])
		}
	}
	if emptyDecided == 0 {
		t.Fatal("no degraded round decided the empty block; the regression path was never exercised")
	}
}

// TestSparsePinMaterialized pins that PinMaterialized ids are
// materialized every sparse round — the seam per-victim adversary
// assertions rely on — and that the pin set survives rounds, drops
// out-of-range ids, and collapses duplicates.
func TestSparsePinMaterialized(t *testing.T) {
	const n = 5000
	pinned := []int{7, 999, 2500, 4999}
	r, err := NewRunner(sparseTestConfig(n, 13, SparseOn))
	if err != nil {
		t.Fatal(err)
	}
	r.PinMaterialized(pinned)
	r.PinMaterialized([]int{2500, -1, n}) // dup and out-of-range: ignored
	if got := len(r.sparse.pinned); got != len(pinned) {
		t.Fatalf("pinned set has %d ids, want %d: %v", got, len(pinned), r.sparse.pinned)
	}
	for i := 0; i < 4; i++ {
		rep := r.runRound()
		reportInvariants(t, rep, n)
		for _, id := range pinned {
			if r.nodes[id] == nil {
				t.Fatalf("pinned node %d not materialized in round %d", id, rep.Round)
			}
		}
	}
}

// TestSparseAdversarySmoke drives the sparse path through mid-run
// behaviour flips (the adaptive-corruption seam) and a selfish cohort,
// checking the bookkeeping invariants hold every round.
func TestSparseAdversarySmoke(t *testing.T) {
	const n = 5000
	cfg := sparseTestConfig(n, 31, SparseOn)
	for i := 0; i < n/10; i++ {
		cfg.Behaviors[i*10] = Selfish
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flip := 0
	r.SetHooks(Hooks{
		RoundStart: func(round uint64) {
			// Corrupt a rolling window of nodes and restore the previous one.
			r.SetBehavior(flip, Malicious)
			if flip > 0 {
				r.SetBehavior(flip-1, Honest)
			}
			flip++
		},
	})
	for _, rep := range r.RunRounds(6) {
		reportInvariants(t, rep, n)
	}
	if got := r.Behavior(flip - 1); got != Malicious {
		t.Fatalf("behaviour table lost the last flip: %v", got)
	}
}

// TestSparseRoundSchedulesOnlyTimers pins that sparse deliveries never
// reach the scheduler: every SparseOn round schedules and executes
// exactly its MaxBinarySteps+3 phase timers, however much it gossips.
func TestSparseRoundSchedulesOnlyTimers(t *testing.T) {
	for _, maxBinary := range []int{1, 11} {
		cfg := sparseTestConfig(1200, 3, SparseOn)
		cfg.Params.MaxBinarySteps = maxBinary
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(maxBinary + 3)
		for round := 0; round < 3; round++ {
			before := r.engine.SchedStats()
			r.RunRounds(1)
			after := r.engine.SchedStats()
			if s, e := after.Scheduled-before.Scheduled, after.Executed-before.Executed; s != want || e != want {
				t.Fatalf("MaxBinarySteps %d, round %d: %d events scheduled and %d executed, want the %d phase timers",
					maxBinary, round, s, e, want)
			}
		}
		var votes uint64
		for _, c := range r.TaskCounts() {
			votes += c.CountVotes
		}
		if votes == 0 {
			t.Fatalf("MaxBinarySteps %d: no vote was delivered, so the pin shows nothing", maxBinary)
		}
	}
}

// fixedDelay is a delay model without a MaxDelay bound.
type fixedDelay time.Duration

func (d fixedDelay) Sample(*rand.Rand) time.Duration { return time.Duration(d) }

// rangeConfig is a sparse configuration whose last step timer plus one
// whole gossip path (4 hops of 100 s, no weak synchrony) ends exactly
// slack before the delivery logs' span.
func rangeConfig(delay network.DelayModel, slack time.Duration) Config {
	cfg := sparseTestConfig(300, 5, SparseOn)
	cfg.Params.TauStep, cfg.Params.TauFinal = 25, 35
	cfg.Params.MaxBinarySteps = 1
	cfg.Params.AsyncFactor = 1
	cfg.Params.StepTimeout = time.Second
	cfg.Params.ProposalTimeout = logSpan - slack - 2*time.Second - 4*100*time.Second
	cfg.Delay = delay
	return cfg
}

// TestSparseRangeBoundary pins the delivery logs' range check at its
// boundary, for a bounded and an unbounded delay model. A run whose last
// timer's deliveries arrive one nanosecond inside the span completes;
// one whose deliveries reach it stops at its first round with a typed
// error instead of wrapping their arrival times.
func TestSparseRangeBoundary(t *testing.T) {
	if sparseHops(300, 5) != 4 {
		t.Fatal("rangeConfig assumes 4 hops")
	}
	for _, delay := range []network.DelayModel{
		network.UniformDelay{Min: 100 * time.Second, Max: 100 * time.Second},
		fixedDelay(100 * time.Second),
	} {
		r, err := NewRunner(rangeConfig(delay, 1))
		if err != nil {
			t.Fatal(err)
		}
		if reps := r.RunRounds(2); len(reps) != 2 || r.Err() != nil {
			t.Fatalf("%T one nanosecond inside the span: %d rounds, err %v", delay, len(reps), r.Err())
		}
		if r, err = NewRunner(rangeConfig(delay, 0)); err != nil {
			t.Fatal(err)
		}
		reps := r.RunRounds(2)
		var rangeErr *SparseRangeError
		if !errors.As(r.Err(), &rangeErr) || rangeErr.Arrival != logSpan || len(reps) != 0 {
			t.Fatalf("%T reaching the span: %d rounds, err %v; want none and a SparseRangeError at %v",
				delay, len(reps), r.Err(), logSpan)
		}
	}
}
