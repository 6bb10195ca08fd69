package experiments

import (
	"os"
	"testing"
)

func TestWeakSyncValidation(t *testing.T) {
	cfg := DefaultWeakSyncConfig()
	cfg.Nodes = 5
	if _, err := RunWeakSync(cfg); err == nil {
		t.Error("tiny network accepted")
	}
	cfg = DefaultWeakSyncConfig()
	cfg.WindowFrom = 0
	if _, err := RunWeakSync(cfg); err == nil {
		t.Error("window at round 0 accepted")
	}
	cfg = DefaultWeakSyncConfig()
	cfg.WindowTo = uint64(cfg.Rounds) + 5
	if _, err := RunWeakSync(cfg); err == nil {
		t.Error("window past the run accepted")
	}
	cfg = DefaultWeakSyncConfig()
	cfg.Nodes, cfg.Runs = 20, 1
	cfg.Defection = 1.5
	if _, err := RunWeakSync(cfg); err == nil {
		t.Error("defection 1.5 accepted")
	}
}

func TestWindowMeanFromZeroClamped(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// from == 0 used to index xs[-1] and panic; it must clamp to round 1.
	if got := windowMean(xs, 0, 2); got != 1.5 {
		t.Errorf("windowMean(from=0, to=2) = %v, want 1.5", got)
	}
	if got := windowMean(xs, 1, 2); got != 1.5 {
		t.Errorf("windowMean(from=1, to=2) = %v, want 1.5", got)
	}
	if got := windowMean(xs, 3, 0); got != 0 {
		t.Errorf("empty window = %v, want 0", got)
	}
}

func TestSpikeRatioWindowFromZero(t *testing.T) {
	// WindowFrom == 0 used to underflow WindowFrom-1 to MaxUint64; the
	// metrics must stay finite and panic-free on a hand-built result.
	res := &WeakSyncResult{
		Config: WeakSyncConfig{WindowFrom: 0, WindowTo: 2, Rounds: 4},
		Final:  []float64{0.9, 0.5, 0.5, 0.9},
	}
	if ratio := res.SpikeRatio(); ratio <= 0 {
		t.Errorf("SpikeRatio = %v, want positive", ratio)
	}
	_ = res.Recovered(0.9) // must not panic
}

func TestWeakSyncSpikeAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultWeakSyncConfig()
	cfg.Runs = 3
	res, err := RunWeakSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res.WriteSummary(os.Stderr)
	// The degraded window must visibly dent final consensus...
	if ratio := res.SpikeRatio(); ratio < 1.5 {
		t.Errorf("consensus-loss spike ratio %v, want >= 1.5", ratio)
	}
	// ...and the network must recover after it, the weak-synchrony
	// behaviour of the paper's Fig. 3-(c) rounds 17-18.
	if !res.Recovered(0.8) {
		t.Error("network did not recover after the degraded window")
	}
	if res.Table().Rows() != cfg.Rounds {
		t.Error("weaksync table rows mismatch")
	}
}

func TestCostsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	res, err := RunCosts(DefaultCostsConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = res.WriteSummary(os.Stderr)
	// Selfish nodes pay exactly c_so = 5 µAlgos per round.
	wantSelfish := 5.0
	if got := res.SelfishPerRound / 1e-6; got < wantSelfish*0.99 || got > wantSelfish*1.01 {
		t.Errorf("selfish per-round cost %.3f µAlgos, want %.1f", got, wantSelfish)
	}
	// Honest nodes pay at least the fixed cost c^K = 6 µAlgos (they also
	// relay and vote), and strictly more than defectors.
	if res.HonestPerRound <= res.SelfishPerRound {
		t.Error("honest cost not above selfish cost")
	}
	if got := res.HonestPerRound / 1e-6; got < 6 {
		t.Errorf("honest per-round cost %.3f µAlgos below c^K", got)
	}
	if res.Table().Rows() != 1 {
		t.Error("costs table rows mismatch")
	}
}

func TestCostsValidation(t *testing.T) {
	for name, bad := range map[string]func(*CostsConfig){
		"tiny network":       func(c *CostsConfig) { c.Nodes = 3 },
		"negative defection": func(c *CostsConfig) { c.Defection = -0.1 },
		"defection above 1":  func(c *CostsConfig) { c.Defection = 1.5 },
	} {
		cfg := DefaultCostsConfig()
		bad(&cfg)
		if _, err := RunCosts(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMixedBehaviors(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultMixedConfig()
	cfg.Runs = 2
	cfg.Rounds = 8
	res, err := RunMixed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res.WriteSummary(os.Stderr)
	baseline := res.Rows[0]
	if baseline.FinalFrac < 0.7 {
		t.Errorf("all-honest baseline final %v, want >= 0.7", baseline.FinalFrac)
	}
	// Every 10% perturbation hurts relative to the baseline.
	for _, row := range res.Rows[1:] {
		if row.FinalFrac > baseline.FinalFrac+0.02 {
			t.Errorf("mix %s finalised more than the honest baseline: %v > %v",
				row.Mix.Label(), row.FinalFrac, baseline.FinalFrac)
		}
	}
	if res.Table().Rows() != len(cfg.Mixes) {
		t.Error("mixed table rows mismatch")
	}
}

func TestMixedValidation(t *testing.T) {
	cfg := DefaultMixedConfig()
	cfg.Mixes = []BehaviorMix{{Selfish: 0.8, Malicious: 0.8}}
	if _, err := RunMixed(cfg); err == nil {
		t.Error("over-unity mix accepted")
	}
	cfg.Mixes = nil
	if _, err := RunMixed(cfg); err == nil {
		t.Error("empty mixes accepted")
	}
}
