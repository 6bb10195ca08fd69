package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

func TestTable3MatchesPaper(t *testing.T) {
	res, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(res.Rows))
	}
	wantMillions := []float64{10, 13, 16, 19, 22, 25, 28, 31, 34, 36, 38, 38}
	for i, row := range res.Rows {
		if row.ProjectedMillion != wantMillions[i] {
			t.Errorf("period %d projected %vM, want %vM", row.Period, row.ProjectedMillion, wantMillions[i])
		}
		wantPerRound := wantMillions[i] * 1e6 / 500_000
		if math.Abs(row.PerRound-wantPerRound) > 1e-9 {
			t.Errorf("period %d per-round %v, want %v", row.Period, row.PerRound, wantPerRound)
		}
	}
	var sb strings.Builder
	if err := res.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "20.0 Algos per round") {
		t.Errorf("summary missing period-1 reward:\n%s", sb.String())
	}
	if res.Table().Rows() != 12 {
		t.Error("table rows mismatch")
	}
}

func TestFig5GridNearPaperOptimum(t *testing.T) {
	res, err := RunFig5(DefaultFig5Config())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≈5.2 Algos at (α, β) = (0.02, 0.03) with a 1% grid.
	if res.GridBest.B < 4.8 || res.GridBest.B > 5.6 {
		t.Errorf("grid best B = %v, want ~5.2", res.GridBest.B)
	}
	if res.GridBest.Alpha > 0.06 || res.GridBest.Beta > 0.06 {
		t.Errorf("grid optimum at (%v, %v), expected small shares", res.GridBest.Alpha, res.GridBest.Beta)
	}
	if res.Optimal.MinB > res.GridBest.B {
		t.Error("analytic optimum worse than grid")
	}
	if got := len(res.Surface); got != 30*30 {
		t.Errorf("surface has %d points, want 900", got)
	}
	if res.Table().Rows() != 900 {
		t.Error("fig5 table rows mismatch")
	}
}

func TestFig5Validation(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Steps = 1
	if _, err := RunFig5(cfg); err == nil {
		t.Error("steps=1 accepted")
	}
	cfg = DefaultFig5Config()
	cfg.Inputs.SL = 0
	if _, err := RunFig5(cfg); err == nil {
		t.Error("invalid inputs accepted")
	}
}

func TestFig6Ordering(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Nodes = 20_000
	cfg.Runs = 3
	cfg.RoundsPerRun = 2
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 4 {
		t.Fatalf("got %d panels", len(res.Panels))
	}
	// Paper ordering: U(1,200) needs the largest reward; N(2000,25)
	// (stake-rich network) the smallest.
	u200 := res.Panels[0].Summary.Mean
	n2000 := res.Panels[3].Summary.Mean
	if u200 <= res.Panels[1].Summary.Mean || u200 <= res.Panels[2].Summary.Mean {
		t.Errorf("U(1,200) should dominate: %v vs %v, %v",
			u200, res.Panels[1].Summary.Mean, res.Panels[2].Summary.Mean)
	}
	if n2000 >= u200 {
		t.Errorf("N(2000,25) should need less than U(1,200): %v >= %v", n2000, u200)
	}
	// Shares must be valid.
	for _, p := range res.Panels {
		if p.MeanAlpha <= 0 || p.MeanBeta <= 0 || p.MeanGamma <= 0 {
			t.Errorf("%s: invalid mean shares %+v", p.Distribution, p)
		}
	}
	h, err := res.Panels[0].Histogram(10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != len(res.Panels[0].Rewards) {
		t.Error("histogram lost samples")
	}
}

func TestFig6Validation(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Nodes = 10
	if _, err := RunFig6(cfg); err == nil {
		t.Error("tiny population accepted")
	}
}

func TestFig7SavingsAndRemoval(t *testing.T) {
	cfg := DefaultFig7Config()
	cfg.Nodes = 20_000
	cfg.Runs = 2
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Foundation trajectory follows Table III: 20 Algos/round in period 1,
	// accumulating 310M Algos over 12 periods.
	if res.Foundation.PerRound[0] != 20 {
		t.Errorf("foundation period-1 per-round = %v", res.Foundation.PerRound[0])
	}
	last := cfg.Periods - 1
	if math.Abs(res.Foundation.Accumulated[last]-310e6) > 1 {
		t.Errorf("foundation accumulated = %v, want 310M", res.Foundation.Accumulated[last])
	}
	// Our mechanism beats the schedule for every distribution at this
	// scale.
	for _, tr := range res.Ours {
		if tr.Accumulated[last] >= res.Foundation.Accumulated[last] {
			t.Errorf("%s accumulated %v not below foundation", tr.Label, tr.Accumulated[last])
		}
	}
	// Removal thresholds shrink the reward monotonically (Fig. 7-c).
	for i := 1; i < len(res.Removal); i++ {
		if res.Removal[i].PerRound[0] >= res.Removal[i-1].PerRound[0] {
			t.Errorf("removal %s per-round %v >= previous %v",
				res.Removal[i].Label, res.Removal[i].PerRound[0], res.Removal[i-1].PerRound[0])
		}
	}
	if res.Table().Rows() != cfg.Periods {
		t.Error("fig7 table rows mismatch")
	}
}

func TestFig7Validation(t *testing.T) {
	cfg := DefaultFig7Config()
	cfg.Periods = 0
	if _, err := RunFig7(cfg); err == nil {
		t.Error("zero periods accepted")
	}
}

func TestEquilibriumValidation(t *testing.T) {
	cfg := DefaultEquilibriumConfig()
	cfg.Leaders = 1
	if _, err := RunEquilibrium(cfg); err == nil {
		t.Error("single leader accepted (theorems need nL > 1)")
	}
}

// TestEquilibriumSamplesConfiguredDistribution checks the audit draws
// every player's stake from cfg.StakeDist and derives the inputs from the
// same game.
func TestEquilibriumSamplesConfiguredDistribution(t *testing.T) {
	cfg := DefaultEquilibriumConfig()
	cfg.StakeDist = stake.Constant{Value: 7}
	g, in, err := sampleGame(cfg, sim.NewRNG(cfg.Seed, "equilibrium"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Players) != cfg.Leaders+cfg.Committee+cfg.Others {
		t.Fatalf("%d players, want %d", len(g.Players), cfg.Leaders+cfg.Committee+cfg.Others)
	}
	for _, p := range g.Players {
		if p.Stake != 7 {
			t.Fatalf("player %d (%s) stake %v, want 7", p.ID, p.Role, p.Stake)
		}
	}
	if in.SL != 7*float64(cfg.Leaders) || in.MinOther != 7 {
		t.Errorf("inputs %+v do not match the sampled game", in)
	}
}

func TestFig3Validation(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.Nodes = 5
	if _, err := RunFig3(cfg); err == nil {
		t.Error("tiny network accepted")
	}
	// A defection rate outside [0, 1] is an invalid behaviour mix: an
	// error, not a slice-bounds panic.
	for _, rate := range []float64{1.5, -0.1} {
		cfg := DefaultFig3Config()
		cfg.Nodes, cfg.Rounds, cfg.Runs = 20, 1, 1
		cfg.DefectionRates = []float64{rate}
		if _, err := RunFig3(cfg); err == nil {
			t.Errorf("defection rate %v accepted", rate)
		}
	}
}

func TestFig3MonotoneDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultFig3Config()
	cfg.Runs = 3
	cfg.Rounds = 8
	cfg.DefectionRates = []float64{0.05, 0.30}
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, high := res.Series[0], res.Series[1]
	if low.MeanFinal() <= high.MeanFinal() {
		t.Errorf("5%% defection final %v should exceed 30%% final %v",
			low.MeanFinal(), high.MeanFinal())
	}
	if high.MeanFinal() > 0.2 {
		t.Errorf("30%% defection should collapse: final %v", high.MeanFinal())
	}
	if low.MeanNone() >= high.MeanNone() {
		t.Errorf("no-block fraction should grow with defection: %v vs %v",
			low.MeanNone(), high.MeanNone())
	}
	tbl := res.Table()
	if tbl.Rows() != cfg.Rounds {
		t.Error("fig3 table rows mismatch")
	}
}

func TestPaperDistributions(t *testing.T) {
	dists := PaperDistributions()
	want := []string{"U(1,200)", "N(100,20)", "N(100,10)", "N(2000,25)"}
	if len(dists) != len(want) {
		t.Fatalf("got %d distributions", len(dists))
	}
	for i, d := range dists {
		if d.Name() != want[i] {
			t.Errorf("distribution %d = %s, want %s", i, d.Name(), want[i])
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("ours U(1,200)"); got != "ours_U_1_200_" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestMeanMechanismRewardRemovalError(t *testing.T) {
	cfg := DefaultFig7Config()
	cfg.Nodes = 1000
	cfg.Runs = 1
	if _, err := meanMechanismReward(cfg, stake.Uniform{A: 1, B: 2}, 100, 1); err == nil {
		t.Error("removal emptying the population accepted")
	}
}
