package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The compare target is the CI benchmark-regression gate: it diffs a
// freshly measured BENCH file (the candidate) against the newest
// checked-in trajectory file (the baseline) and fails when a gated
// workload regressed. See README "Benchmark pipeline".
//
// Gate rules:
//
//   - ns/op may not regress by more than maxNsRegression on the gated
//     workloads (protocol_round_100 ↔ BenchmarkProtocolRound, fig3_small
//     ↔ BenchmarkFig3) — enforced only when baseline and candidate
//     provably ran on the same hardware (goos/goarch/cpu count AND a
//     matching, non-empty cpu model string), advisory otherwise: wall
//     time on a different machine says nothing about the code;
//   - allocs/op may not regress beyond a small absolute slack on gated
//     workloads — the gated workloads measure a fixed, seeded iteration
//     window (see genBench), so the simulation's own allocation sequence
//     is deterministic; the runtime still contributes a few background
//     allocations per window (GC workers, timer wakeups), measured at
//     ±3/op on identical binaries, which the slack absorbs. Any real
//     per-call regression adds at least one alloc per iteration (+100/op
//     on the 100x windows) and still trips the gate. The tight slack is
//     only honest on proven-identical hardware: a different Go runtime
//     build, core count, or GC pacing regime shifts the background
//     allocation rate by tens per window, so against a baseline whose
//     CPU model is unknown or differs the slack widens (see allocSlack).
//     A Go toolchain bump can shift runtime allocations past even the
//     wide slack: regenerate the baseline in that case;
//   - headline figure metrics must match the baseline bit-for-bit: they
//     are seed-pinned, so a diff is a behaviour change that must go
//     through the golden-figure update flow instead.

// maxNsRegression is the tolerated fractional ns/op increase on gated
// workloads (noise margin for shared CI runners).
const maxNsRegression = 0.20

// allocSlack returns the tolerated allocs/op increase for a baseline
// value. On proven-identical hardware (matching, non-empty CPU model):
// the greater of 4 allocations and 0.1%, covering the runtime's
// background-allocation jitter without masking per-iteration leaks.
// Against an unknown or different machine the background rate itself is
// unknown — a different core count or GC pacing regime moves it by tens
// per fixed window — so the slack widens to the greater of 64 and 1%,
// which still catches any real per-iteration leak (+100/op on the 100x
// windows) without flaking on runner lottery.
func allocSlack(base int64, sameHardware bool) int64 {
	if sameHardware {
		if s := base / 1000; s > 4 {
			return s
		}
		return 4
	}
	if s := base / 100; s > 64 {
		return s
	}
	return 64
}

// gatedWorkloads maps persisted workload keys to the benchmark names
// developers know them by.
var gatedWorkloads = []struct{ key, bench string }{
	{"protocol_round_100", "BenchmarkProtocolRound"},
	{"fig3_small", "BenchmarkFig3"},
	// The adversary-engine + fault-overlay path; absent from baselines
	// older than PR 4, where the gate reports it skipped.
	{"scenario_eclipse_100", "cmd/scenario eclipse_equivocation"},
	// The resync-heavy -full grid workload on COW ledger views; absent
	// from baselines older than BENCH_5.json.
	{"crash_churn_500", "cmd/scenario crash_churn -fullNodes 500"},
	// The isolated per-desync catch-up cost (clone + one write); pinned
	// so resync never silently regresses to O(accounts) again.
	{"ledger_resync_4096", "ledger.CloneView + Credit"},
	// The incremental weight index's per-round refresh (16 credits +
	// WeightsInto + TotalWeight on 4096 accounts); absent from baselines
	// older than PR 6. Its _direct companion measures the page-walking
	// default and is informational, not gated.
	{"weight_oracle_refresh", "weight.Index refresh, 4096 accounts"},
	// One sparse-committee round at 50k nodes — the O(committee) hot path
	// that carries the 500k fig3 sweep; absent from baselines older than
	// PR 7.
	{"protocol_round_sparse_50k", "50k-node sparse BA* round"},
	// The streamed -full grid through the summary-fold sink; absent from
	// baselines older than BENCH_8.json.
	{"grid_stream_summary", "StreamScenarioGrid + SummarySink, 2x2 grid"},
}

func loadBench(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// latestBenchFile finds the highest-numbered BENCH_<n>.json in dir,
// excluding the candidate path itself.
func latestBenchFile(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	sort.Strings(matches)
	best, bestPR := "", -1
	excludeAbs, _ := filepath.Abs(exclude)
	for _, m := range matches {
		abs, _ := filepath.Abs(m)
		if exclude != "" && abs == excludeAbs {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		pr, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		if pr > bestPR {
			best, bestPR = m, pr
		}
	}
	if best == "" {
		return "", fmt.Errorf("no baseline BENCH_<n>.json found in %q", dir)
	}
	return best, nil
}

// runCompare enforces the benchmark-regression gate. It returns an error
// (failing the CI job) when any gate trips.
func runCompare(baselinePath, candidatePath string) error {
	if candidatePath == "" {
		return fmt.Errorf("compare: -candidate FILE is required (the freshly generated bench JSON)")
	}
	if baselinePath == "" {
		var err error
		baselinePath, err = latestBenchFile(".", candidatePath)
		if err != nil {
			return err
		}
	}
	base, err := loadBench(baselinePath)
	if err != nil {
		return err
	}
	cand, err := loadBench(candidatePath)
	if err != nil {
		return err
	}
	fmt.Printf("baseline:  %s (PR %d, %s/%s, %d cpu, %q)\n", baselinePath, base.PR, base.GoOS, base.GoArch, base.NumCPU, base.CPU)
	fmt.Printf("candidate: %s (PR %d, %s/%s, %d cpu, %q)\n\n", candidatePath, cand.PR, cand.GoOS, cand.GoArch, cand.NumCPU, cand.CPU)
	// The ns/op gate only fires on provably identical hardware. The
	// goos/goarch/count triple is not enough — every 1-vCPU amd64 cloud
	// runner matches every other — so the processor model string must
	// match too, and files that never recorded one (pre-PR 6 baselines,
	// or platforms without /proc/cpuinfo) compare as unknown hardware.
	sameHardware := base.GoOS == cand.GoOS && base.GoArch == cand.GoArch &&
		base.NumCPU == cand.NumCPU && base.CPU == cand.CPU && base.CPU != ""
	if !sameHardware {
		fmt.Println("warning: baseline and candidate hardware differ or cannot be proven identical; the ns/op gate is advisory and the allocs slack widens here (headline gate still applies in full)")
	}

	failures := gateDiff(base, cand, sameHardware)

	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Printf("FAIL: %s\n", f)
		}
		return fmt.Errorf("benchmark regression gate failed (%d finding(s))", len(failures))
	}
	fmt.Println("\nbenchmark regression gate passed")
	return nil
}

// gateDiff applies every gate rule to a baseline/candidate pair and
// returns the findings (empty = gate passes). Shared by the compare
// target and the -selfcheck mode, which feeds it two measurements of
// the same build.
func gateDiff(base, cand *BenchFile, sameHardware bool) []string {
	var failures []string
	fmt.Printf("%-22s %14s %14s %8s %12s %12s\n", "workload", "base ns/op", "cand ns/op", "Δns", "base allocs", "cand allocs")
	for _, g := range gatedWorkloads {
		b, okB := base.Benchmarks[g.key]
		c, okC := cand.Benchmarks[g.key]
		if !okB {
			fmt.Printf("%-22s missing from baseline — skipped\n", g.key)
			continue
		}
		if !okC {
			failures = append(failures, fmt.Sprintf("%s (%s): missing from candidate", g.key, g.bench))
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		fmt.Printf("%-22s %14.0f %14.0f %+7.1f%% %12d %12d\n",
			g.key, b.NsPerOp, c.NsPerOp, delta*100, b.AllocsPerOp, c.AllocsPerOp)
		if delta > maxNsRegression {
			if sameHardware {
				failures = append(failures, fmt.Sprintf("%s (%s): ns/op regressed %.1f%% (limit %.0f%%)",
					g.key, g.bench, delta*100, maxNsRegression*100))
			} else {
				fmt.Printf("warning: %s ns/op +%.1f%% vs baseline, not gated across differing hardware\n", g.key, delta*100)
			}
		}
		if slack := allocSlack(b.AllocsPerOp, sameHardware); c.AllocsPerOp > b.AllocsPerOp+slack {
			failures = append(failures, fmt.Sprintf("%s (%s): allocs/op regressed %d -> %d (slack %d)",
				g.key, g.bench, b.AllocsPerOp, c.AllocsPerOp, slack))
		}
	}

	// Informational: telemetry overhead within the candidate itself —
	// protocol_round_100 runs with the registry disabled (nil hooks),
	// its _obs companion with the registry enabled. The target is <2%
	// ns/op and 0 extra allocs/op; printed, not gated, because ns/op on
	// a shared runner is too noisy to fail a build over 2%. The alloc
	// side IS gated, by protocol's TestRoundAllocBudgetWithMetrics.
	if off, okOff := cand.Benchmarks["protocol_round_100"]; okOff {
		if on, okOn := cand.Benchmarks["protocol_round_100_obs"]; okOn {
			fmt.Printf("\nobs_overhead (informational): round ns/op %+.1f%% with registry enabled, allocs/op %+d (target <2%%, +0)\n",
				(on.NsPerOp-off.NsPerOp)/off.NsPerOp*100, on.AllocsPerOp-off.AllocsPerOp)
		}
	}

	fmt.Println()
	names := make([]string, 0, len(base.Headline))
	for name := range base.Headline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Headline[name]
		got, ok := cand.Headline[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("headline %s: missing from candidate", name))
		case got != want:
			failures = append(failures, fmt.Sprintf("headline %s: %v != baseline %v (seed-pinned metrics must match exactly)", name, got, want))
		default:
			fmt.Printf("headline %-28s %v  ok\n", name, got)
		}
	}
	return failures
}

// runSelfCheck is the gate-configuration validator behind
// `compare -selfcheck`: it measures the current build twice in-process
// and applies the full gate rules between the two runs. The build is
// identical by construction, so any finding means the tolerances
// (allocSlack, maxNsRegression) are too tight to absorb this runner's
// run-to-run jitter — a gate-configuration failure, not a build
// regression — and the error message says so. CI runs this before
// trusting a red compare verdict.
func runSelfCheck(pr int) error {
	fmt.Println("selfcheck: measuring the current build twice in-process ...")
	first, err := measureBench(pr)
	if err != nil {
		return fmt.Errorf("selfcheck first measurement: %w", err)
	}
	fmt.Println("\nselfcheck: second measurement ...")
	second, err := measureBench(pr)
	if err != nil {
		return fmt.Errorf("selfcheck second measurement: %w", err)
	}
	// Same process, same binary: the hardware is identical by
	// construction, so the tight same-hardware slack applies — that is
	// the configuration being validated.
	findings := gateDiff(first, second, true)
	if len(findings) > 0 {
		fmt.Println()
		for _, f := range findings {
			fmt.Printf("SELFCHECK: %s\n", f)
		}
		return fmt.Errorf("compare -selfcheck: two measurements of the same build disagree under the gate rules (%d finding(s)) — the gate configuration is too tight for this runner, not a build regression; widen the slack or loosen maxNsRegression before trusting a red compare", len(findings))
	}
	fmt.Println("\nselfcheck passed: gate tolerances absorb this runner's run-to-run jitter")
	return nil
}
