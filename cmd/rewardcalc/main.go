// Command rewardcalc runs Algorithm 1 for a stake population and prints
// the incentive-compatible reward parameters (α, β, γ, B_i), the three
// Theorem 3 bounds at the optimum, and a Nash-equilibrium certification.
//
// The population is either sampled from a named distribution or read from
// a file with one stake per line.
//
// Usage:
//
//	rewardcalc [-dist u200|n100-20|n100-10|n2000-25] [-nodes N]
//	           [-stakes file] [-floor W] [-seed S]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/cliutil"
	"github.com/dsn2020-algorand/incentives/internal/core"
	"github.com/dsn2020-algorand/incentives/internal/game"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/stake"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "rewardcalc:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rewardcalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		distName  = fs.String("dist", "u200", "stake distribution: u200, n100-20, n100-10, n2000-25, pareto, zipf[:exponent]")
		nodes     = fs.Int("nodes", 100_000, "population size when sampling")
		stakeFile = fs.String("stakes", "", "file with one stake per line (overrides -dist)")
		floor     = fs.Float64("floor", 0, "ignore sync-set stakes below this value (paper's s*_k floor)")
		seed      = cliutil.Seed(fs, 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliutil.NoArgs(fs); err != nil {
		return err
	}

	pop, err := loadPopulation(*stakeFile, *distName, *nodes, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "population: %d accounts, total %.1f Algos, min %.3f, max %.3f\n",
		pop.N(), pop.Total(), pop.Min(), pop.Max())

	costs := game.DefaultRoleCosts()
	opts := core.Options{OtherFloor: *floor}
	in, err := core.InputsFromPopulation(pop, costs, opts)
	if err != nil {
		return err
	}
	params, err := core.Minimize(in)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nAlgorithm 1 output:\n")
	fmt.Fprintf(stdout, "  alpha = %.6g\n  beta  = %.6g\n  gamma = %.6g\n", params.Alpha, params.Beta, params.Gamma)
	fmt.Fprintf(stdout, "  B_i   = %.6g Algos per round (infimum %.6g, binding: %s)\n",
		params.B, params.MinB, params.Binding)

	l, m, k := core.Bounds(in, params.Alpha, params.Beta)
	fmt.Fprintf(stdout, "\nTheorem 3 bounds at the optimum:\n")
	fmt.Fprintf(stdout, "  leader:    %.6g\n  committee: %.6g\n  others:    %.6g\n", l, m, k)

	if err := core.VerifyIncentiveCompatible(in, params); err != nil {
		return fmt.Errorf("certification FAILED: %w", err)
	}
	fmt.Fprintf(stdout, "\ncertified: cooperative profile is a Nash equilibrium at B_i\n")
	return nil
}

func loadPopulation(file, dist string, nodes int, seed int64) (*stake.Population, error) {
	if file != "" {
		return readStakes(file)
	}
	// "zipf[:exponent]" draws from the synthetic weight-oracle profile
	// (rank-based heavy tail at mean stake 100), so Algorithm 1 can be
	// priced on the same distribution the simulator's Zipf runs use.
	if body, ok := strings.CutPrefix(dist, "zipf"); ok {
		exponent := 1.1
		if e, ok := strings.CutPrefix(body, ":"); ok {
			var err error
			if exponent, err = strconv.ParseFloat(e, 64); err != nil {
				return nil, fmt.Errorf("bad zipf exponent %q: %w", e, err)
			}
			if math.IsNaN(exponent) || math.IsInf(exponent, 0) {
				return nil, fmt.Errorf("bad zipf exponent %q: not finite", e)
			}
		} else if body != "" {
			return nil, fmt.Errorf("unknown distribution %q", dist)
		}
		oracle := weight.NewZipf(nodes, exponent, 100*float64(nodes), seed)
		return &stake.Population{Stakes: weight.Snapshot(oracle, 0)}, nil
	}
	var d stake.Distribution
	switch dist {
	case "u200":
		d = stake.Uniform{A: 1, B: 200}
	case "n100-20":
		d = stake.Normal{Mu: 100, Sigma: 20}
	case "n100-10":
		d = stake.Normal{Mu: 100, Sigma: 10}
	case "n2000-25":
		d = stake.Normal{Mu: 2000, Sigma: 25}
	case "pareto":
		d = stake.Pareto{Xm: 10, Alpha: 1.5}
	default:
		return nil, fmt.Errorf("unknown distribution %q", dist)
	}
	return stake.SamplePopulation(d, nodes, sim.NewRNG(seed, "rewardcalc"))
}

func readStakes(path string) (*stake.Population, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var stakes []float64
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: parse stake %q: %w", path, n, line, err)
		}
		// Zero is a legal (non-participating) balance; Algorithm 1 skips it.
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%s:%d: stake %q is not a finite non-negative number", path, n, line)
		}
		stakes = append(stakes, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stakes) == 0 {
		return nil, fmt.Errorf("no stakes in %s", path)
	}
	return &stake.Population{Stakes: stakes}, nil
}
