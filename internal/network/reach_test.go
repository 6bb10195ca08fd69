package network

import (
	"math"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

func TestBranchingFactor(t *testing.T) {
	a := ReachAnalysis{Fanout: 5, RelayFrac: 0.8, LossProb: 0.2}
	if got := a.BranchingFactor(); math.Abs(got-3.2) > 1e-12 {
		t.Errorf("R0 = %v, want 3.2", got)
	}
}

func TestExpectedCoverageFixedPoint(t *testing.T) {
	// The fixed point must satisfy c = 1 - exp(-R0 c).
	a := ReachAnalysis{Fanout: 5, RelayFrac: 1, LossProb: 0}
	c := a.ExpectedCoverage()
	if math.Abs(c-(1-math.Exp(-a.BranchingFactor()*c))) > 1e-9 {
		t.Errorf("coverage %v is not a fixed point", c)
	}
	if c < 0.99 {
		t.Errorf("R0=5 coverage %v, want ~0.993", c)
	}
}

func TestExpectedCoverageBelowPercolation(t *testing.T) {
	a := ReachAnalysis{Fanout: 2, RelayFrac: 0.4, LossProb: 0.2}
	if a.BranchingFactor() > 1 {
		t.Fatal("test setup: want subcritical R0")
	}
	if got := a.ExpectedCoverage(); got != 0 {
		t.Errorf("subcritical coverage = %v, want 0", got)
	}
}

func TestExpectedCoverageMonotoneInLoss(t *testing.T) {
	prev := 1.0
	for _, loss := range []float64{0, 0.2, 0.4, 0.6} {
		a := ReachAnalysis{Fanout: 5, RelayFrac: 0.9, LossProb: loss}
		c := a.ExpectedCoverage()
		if c > prev+1e-12 {
			t.Errorf("coverage not monotone: %v at loss %v after %v", c, loss, prev)
		}
		prev = c
	}
}

func TestStaticReachFullyRelaying(t *testing.T) {
	net, _, _ := build(t, 120, 5, 0)
	reach := net.StaticReach(0)
	// A 5-out random digraph is almost surely a single giant component;
	// a couple of zero-in-degree nodes may be unreachable.
	if reach < 115 {
		t.Errorf("static reach = %d/120", reach)
	}
	if net.StaticReach(-1) != 0 || net.StaticReach(120) != 0 {
		t.Error("out-of-range origins should reach nothing")
	}
}

func TestStaticReachNonRelayingFrontier(t *testing.T) {
	net, _, _ := build(t, 120, 5, 0)
	for i := 1; i < 120; i++ {
		net.SetRelay(i, false)
	}
	if reach := net.StaticReach(0); reach != 6 {
		t.Errorf("reach with only the origin relaying = %d, want 6", reach)
	}
}

func TestStaticReachOfflineOrigin(t *testing.T) {
	net, _, _ := build(t, 50, 5, 0)
	net.SetOnline(0, false)
	if net.StaticReach(0) != 0 {
		t.Error("offline origin should reach nothing")
	}
}

// TestSimulatedCoverageMatchesTheory cross-checks the discrete-event
// gossip against the analytic percolation prediction within a tolerance.
func TestSimulatedCoverageMatchesTheory(t *testing.T) {
	const (
		nodes  = 400
		fanout = 5
		loss   = 0.3
		trials = 40
	)
	engine := sim.NewEngine(9)
	delivered := 0
	var rec int
	net, err := New(Config{
		N:        nodes,
		Fanout:   fanout,
		Delay:    UniformDelay{Min: time.Millisecond, Max: 2 * time.Millisecond},
		LossProb: loss,
	}, engine, func(node int, msg Message) { rec++ })
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < trials; trial++ {
		rec = 0
		net.ResetSeen()
		net.Gossip(trial%nodes, Message{ID: [32]byte{byte(trial), byte(trial >> 8), 99}, Kind: KindVote})
		engine.Run(0)
		delivered += rec
	}
	simCoverage := float64(delivered) / float64(trials*nodes)
	theory := ReachAnalysis{Fanout: fanout, RelayFrac: 1, LossProb: loss}.ExpectedCoverage()
	// Allow for early die-out and finite-size effects.
	if math.Abs(simCoverage-theory) > 0.08 {
		t.Errorf("simulated coverage %.3f vs theoretical %.3f", simCoverage, theory)
	}
}
