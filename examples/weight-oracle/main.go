// Command weight-oracle walks through the pluggable stake-weight seam:
// it runs the Fig. 3 defection sweep twice — once on the default
// ledger-direct oracle (sortition reads the chain's uniform-integer
// genesis stakes) and once on a synthetic Zipf profile with a mid-sweep
// churn step — and prints the per-round FINAL fractions side by side.
//
// The comparison is the point of the seam: the ledger, the gossip
// layer, the adversary hooks and the reward bookkeeping are identical
// in both runs; only the oracle answering "how much weight does node i
// carry in round r?" changes. A heavy-tailed profile concentrates
// committee seats on a few whales, so the collapse threshold shifts
// relative to the paper's uniform-stake baseline.
//
// Usage:
//
//	go run ./examples/weight-oracle [-nodes N] [-rounds R] [-runs K]
//	    [-weights SPEC] [-backend direct|indexed]
//
// SPEC follows cmd/scenario's -weights grammar, e.g.
// "zipf:1.3:40;churn@10:0.2:0.5" (Zipf exponent 1.3, mean stake 40,
// and at round 10 rescale a random 20% of nodes to half weight).
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
)

func main() {
	nodes := flag.Int("nodes", 100, "network size")
	rounds := flag.Int("rounds", 20, "rounds per simulation")
	runs := flag.Int("runs", 4, "independent runs per defection rate")
	weightsSpec := flag.String("weights", "zipf:1.1;churn@10:0.2:0.5",
		"synthetic weight profile for the second sweep (zipf:<exp>[:<meanStake>][;churn@<round>:<frac>:<scale>,...])")
	backend := flag.String("backend", "direct",
		"ledger-backed oracle for the baseline sweep: direct or indexed")
	flag.Parse()

	if err := run(*nodes, *rounds, *runs, *weightsSpec, *backend); err != nil {
		log.Fatal(err)
	}
}

func run(nodes, rounds, runs int, weightsSpec, backendSpec string) error {
	cfg := experiments.DefaultFig3Config()
	cfg.Nodes = nodes
	cfg.Rounds = rounds
	cfg.Runs = runs
	cfg.DefectionRates = []float64{0.10, 0.20, 0.30}

	// Sweep 1: ledger-backed weights. "direct" is the pass-through
	// default; "indexed" routes the same reads through the incremental
	// stake index — with no reward hook installed both are
	// bit-identical, so the backend flag here only demonstrates the
	// selection plumbing.
	var err error
	cfg.WeightBackend, err = experiments.ParseWeightBackend(backendSpec)
	if err != nil {
		return err
	}
	fmt.Printf("sweep 1: ledger stakes (U{1..50} genesis, %s backend)\n", cfg.WeightBackend)
	ledgerRes, err := experiments.RunFig3(cfg)
	if err != nil {
		return err
	}

	// Sweep 2: identical protocol, synthetic weights. The profile is a
	// pure function of each run's seed, so the sweep stays deterministic
	// at every worker count; rewards still accrue on chain but sortition
	// no longer reads balances.
	profile, err := experiments.ParseWeightProfile(weightsSpec)
	if err != nil {
		return err
	}
	if profile == nil {
		return fmt.Errorf("empty -weights spec: the second sweep needs a synthetic profile")
	}
	cfg.WeightProfile = profile
	fmt.Printf("sweep 2: synthetic profile %q\n\n", weightsSpec)
	zipfRes, err := experiments.RunFig3(cfg)
	if err != nil {
		return err
	}

	fmt.Println("fraction of nodes extracting a FINAL block, by round:")
	fmt.Print("          ledger stakes          synthetic profile\n")
	fmt.Print("round ")
	for range 2 {
		for _, s := range ledgerRes.Series {
			fmt.Printf("  d=%2.0f%%", s.Rate*100)
		}
		fmt.Print("   ")
	}
	fmt.Println()
	for round := 0; round < rounds; round++ {
		fmt.Printf("%5d ", round+1)
		for _, s := range ledgerRes.Series {
			fmt.Printf("  %5.1f", 100*s.Final[round])
		}
		fmt.Print("   ")
		for _, s := range zipfRes.Series {
			fmt.Printf("  %5.1f", 100*s.Final[round])
		}
		fmt.Println()
	}
	return nil
}
