package protocol

import (
	"math"
	"testing"
	"time"
)

func testStakes(n int) []float64 {
	stakes := make([]float64, n)
	for i := range stakes {
		stakes[i] = float64(1 + (i*7)%50)
	}
	return stakes
}

func behaviorsOf(n int, b Behavior) []Behavior {
	out := make([]Behavior, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func newTestRunner(t *testing.T, n int, behaviors []Behavior, seed int64) *Runner {
	t.Helper()
	r, err := NewRunner(Config{
		Params:    DefaultParams(),
		Stakes:    testStakes(n),
		Behaviors: behaviors,
		Fanout:    5,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.TauProposer = 0 },
		func(p *Params) { p.TauStep = 0 },
		func(p *Params) { p.TauFinal = -1 },
		func(p *Params) { p.ThresholdStep = 0.5 },
		func(p *Params) { p.ThresholdStep = 1 },
		func(p *Params) { p.ThresholdFinal = 0.4 },
		func(p *Params) { p.ProposalTimeout = 0 },
		func(p *Params) { p.StepTimeout = -time.Second },
		func(p *Params) { p.MaxBinarySteps = 0 },
		func(p *Params) { p.TauProposer = math.NaN() },
		func(p *Params) { p.TauStep = math.NaN() },
		func(p *Params) { p.TauStep = math.Inf(1) },
		func(p *Params) { p.TauFinal = math.NaN() },
		func(p *Params) { p.TauFinal = math.Inf(1) },
		func(p *Params) { p.ThresholdStep = math.NaN() },
		func(p *Params) { p.ThresholdFinal = math.NaN() },
	}
	for i, m := range mutations {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{Params: DefaultParams(), Stakes: []float64{1}, Behaviors: []Behavior{Honest}}); err == nil {
		t.Error("single node accepted")
	}
	if _, err := NewRunner(Config{Params: DefaultParams(), Stakes: []float64{1, 2}, Behaviors: []Behavior{Honest}}); err == nil {
		t.Error("behavior length mismatch accepted")
	}
	bad := DefaultParams()
	bad.TauStep = 0
	if _, err := NewRunner(Config{Params: bad, Stakes: []float64{1, 2}, Behaviors: behaviorsOf(2, Honest)}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestAllHonestReachesConsensus(t *testing.T) {
	r := newTestRunner(t, 60, behaviorsOf(60, Honest), 11)
	reports := r.RunRounds(8)
	decided := 0
	finalSum := 0.0
	for _, rep := range reports {
		if rep.Decided {
			decided++
		}
		finalSum += rep.FinalFrac()
	}
	if decided < 6 {
		t.Errorf("only %d/8 rounds decided in an all-honest network", decided)
	}
	if mean := finalSum / 8; mean < 0.7 {
		t.Errorf("mean final fraction = %v, want >= 0.7", mean)
	}
	if r.Canonical().Len() != decided {
		t.Errorf("canonical chain length %d, want %d decided rounds", r.Canonical().Len(), decided)
	}
}

func TestOutcomeFractionsSumToOne(t *testing.T) {
	r := newTestRunner(t, 50, behaviorsOf(50, Honest), 3)
	for _, rep := range r.RunRounds(4) {
		sum := rep.FinalFrac() + rep.TentativeFrac() + rep.NoneFrac()
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("round %d fractions sum to %v", rep.Round, sum)
		}
		if rep.FinalCount+rep.TentativeCount+rep.NoneCount != 50 {
			t.Errorf("round %d counts do not cover all nodes", rep.Round)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []RoundReport {
		r := newTestRunner(t, 40, behaviorsOf(40, Honest), 99)
		return r.RunRounds(4)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].FinalCount != b[i].FinalCount ||
			a[i].TentativeCount != b[i].TentativeCount ||
			a[i].CanonicalHash != b[i].CanonicalHash {
			t.Fatalf("round %d differs across identical seeds", i)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	r1 := newTestRunner(t, 40, behaviorsOf(40, Honest), 1)
	r2 := newTestRunner(t, 40, behaviorsOf(40, Honest), 2)
	a := r1.RunRounds(3)
	b := r2.RunRounds(3)
	same := true
	for i := range a {
		if a[i].CanonicalHash != b[i].CanonicalHash {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical canonical chains")
	}
}

func TestSelfishNodesExtractNothing(t *testing.T) {
	behaviors := behaviorsOf(60, Honest)
	selfish := []int{3, 17, 42}
	for _, i := range selfish {
		behaviors[i] = Selfish
	}
	r := newTestRunner(t, 60, behaviors, 5)
	for _, rep := range r.RunRounds(5) {
		for _, i := range selfish {
			if rep.Outcomes[i] != OutcomeNone {
				t.Errorf("round %d: selfish node %d extracted %v", rep.Round, i, rep.Outcomes[i])
			}
		}
	}
}

func TestFaultyNodesOfflineAndHarmless(t *testing.T) {
	behaviors := behaviorsOf(60, Honest)
	behaviors[10] = Faulty
	behaviors[20] = Faulty
	r := newTestRunner(t, 60, behaviors, 5)
	if r.Network().Online(10) || r.Network().Online(20) {
		t.Fatal("faulty nodes should be offline")
	}
	reports := r.RunRounds(5)
	decided := 0
	for _, rep := range reports {
		if rep.Outcomes[10] != OutcomeNone {
			t.Error("faulty node extracted a block")
		}
		if rep.Decided {
			decided++
		}
	}
	if decided < 3 {
		t.Errorf("two faulty nodes broke consensus: %d/5 decided", decided)
	}
}

func TestMaliciousMinorityTolerated(t *testing.T) {
	behaviors := behaviorsOf(60, Honest)
	for i := 0; i < 6; i++ { // 10% malicious
		behaviors[i*10] = Malicious
	}
	r := newTestRunner(t, 60, behaviors, 8)
	decided := 0
	for _, rep := range r.RunRounds(5) {
		if rep.Decided {
			decided++
		}
	}
	if decided < 3 {
		t.Errorf("10%% malicious broke consensus: %d/5 decided", decided)
	}
}

func TestHeavyDefectionPreventsFinalConsensus(t *testing.T) {
	behaviors := behaviorsOf(60, Honest)
	for i := 0; i < 24; i++ { // 40% selfish
		behaviors[i] = Selfish
	}
	r := newTestRunner(t, 60, behaviors, 6)
	for _, rep := range r.RunRounds(5) {
		if rep.FinalFrac() > 0.2 {
			t.Errorf("round %d: final fraction %v despite 40%% defection", rep.Round, rep.FinalFrac())
		}
	}
}

func TestRewardHookReceivesRoles(t *testing.T) {
	var calls int
	var lastRoles RoundRoles
	r, err := NewRunner(Config{
		Params:    DefaultParams(),
		Stakes:    testStakes(50),
		Behaviors: behaviorsOf(50, Honest),
		Seed:      13,
		Reward: func(roles RoundRoles, report RoundReport) {
			calls++
			lastRoles = roles
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunRounds(3)
	if calls != 3 {
		t.Fatalf("reward hook called %d times, want 3", calls)
	}
	seen := make(map[int]int)
	for _, rs := range lastRoles.Leaders {
		seen[rs.ID]++
		if rs.Weight <= 0 || rs.Stake <= 0 {
			t.Errorf("leader %d has weight %v stake %v", rs.ID, rs.Weight, rs.Stake)
		}
	}
	for _, rs := range lastRoles.Committee {
		seen[rs.ID]++
	}
	for _, rs := range lastRoles.Others {
		seen[rs.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("node %d appears in %d role groups", id, n)
		}
	}
	total := len(lastRoles.Leaders) + len(lastRoles.Committee) + len(lastRoles.Others)
	if total != 50 {
		t.Errorf("roles cover %d nodes, want 50", total)
	}
}

func TestTransactionsCommitAndApply(t *testing.T) {
	r := newTestRunner(t, 50, behaviorsOf(50, Honest), 21)
	from, to := 1, 2
	beforeFrom := r.Canonical().Stake(from)
	beforeTo := r.Canonical().Stake(to)
	r.SubmitTransaction(from, to, 1)
	reports := r.RunRounds(4)
	committed := false
	for _, rep := range reports {
		if rep.Decided && !rep.CanonicalEmpty {
			committed = true
		}
	}
	if !committed {
		t.Skip("no non-empty block decided in 4 rounds; seed-dependent")
	}
	if got := r.Canonical().Stake(from); math.Abs(got-(beforeFrom-1)) > 1e-9 {
		t.Errorf("sender stake %v, want %v", got, beforeFrom-1)
	}
	if got := r.Canonical().Stake(to); math.Abs(got-(beforeTo+1)) > 1e-9 {
		t.Errorf("receiver stake %v, want %v", got, beforeTo+1)
	}
}

func TestCanonicalChainConsistency(t *testing.T) {
	r := newTestRunner(t, 50, behaviorsOf(50, Honest), 31)
	reports := r.RunRounds(5)
	lastRound := uint64(0)
	for _, rep := range reports {
		if rep.Decided {
			if rep.Round <= lastRound {
				t.Errorf("decided round %d did not advance past %d", rep.Round, lastRound)
			}
			lastRound = rep.Round
		}
	}
	// Canonical round must be one past the number of committed blocks.
	if r.Canonical().Round() != uint64(r.Canonical().Len())+1 {
		t.Error("canonical round/len mismatch")
	}
}

func TestBehaviorAndOutcomeStrings(t *testing.T) {
	if Honest.String() != "honest" || Selfish.String() != "selfish" ||
		Malicious.String() != "malicious" || Faulty.String() != "faulty" ||
		Behavior(9).String() != "unknown" {
		t.Error("Behavior.String broken")
	}
	if OutcomeFinal.String() != "final" || OutcomeTentative.String() != "tentative" ||
		OutcomeNone.String() != "none" {
		t.Error("Outcome.String broken")
	}
	if !Honest.Cooperates() || Selfish.Cooperates() {
		t.Error("Cooperates broken")
	}
}

func TestDesyncedCountReported(t *testing.T) {
	behaviors := behaviorsOf(60, Honest)
	for i := 0; i < 12; i++ {
		behaviors[i] = Selfish
	}
	r := newTestRunner(t, 60, behaviors, 17)
	for _, rep := range r.RunRounds(5) {
		if rep.Desynced < 0 || rep.Desynced > 60 {
			t.Errorf("desynced = %d out of range", rep.Desynced)
		}
	}
}

func TestCanonicalChainIntegrity(t *testing.T) {
	behaviors := behaviorsOf(50, Honest)
	behaviors[0] = Malicious
	behaviors[1] = Selfish
	r := newTestRunner(t, 50, behaviors, 61)
	r.RunRounds(6)
	if err := r.Canonical().VerifyChain(); err != nil {
		t.Errorf("canonical chain integrity violated: %v", err)
	}
	for id, nd := range r.nodes {
		if err := nd.ledger.VerifyChain(); err != nil {
			t.Errorf("node %d chain integrity violated: %v", id, err)
		}
	}
}
