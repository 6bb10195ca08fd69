package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/*.golden; run
//
//	go test ./cmd/algosim -run TestRunGolden -update
//
// only after an intentional output change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// TestRunGolden pins algosim's stdout and stderr byte for byte on one
// invocation per output shape: the averaged multi-run table with every
// behaviour class and a non-default loss, the single-run CSV with its
// gossip counters, a sparse run under a synthetic weight profile, and an
// all-honest run. Each is checked at -workers 1 and 8.
func TestRunGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	for name, args := range map[string][]string{
		"dense_runs":    {"-nodes", "60", "-rounds", "4", "-runs", "3", "-malicious", "0.05", "-faulty", "0.05", "-loss", "0.1"},
		"single_csv":    {"-nodes", "60", "-rounds", "3", "-csv"},
		"sparse_zipf":   {"-nodes", "300", "-rounds", "3", "-runs", "2", "-sparse", "on", "-tauStep", "30", "-tauFinal", "40", "-weights", "zipf:1.3"},
		"honest_single": {"-nodes", "60", "-rounds", "3", "-defect", "0"},
	} {
		t.Run(name, func(t *testing.T) {
			var first string
			for _, workers := range []string{"1", "8"} {
				var stdout, stderr bytes.Buffer
				if err := run(append(args, "-workers", workers), &stdout, &stderr); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
				got := "-- stdout --\n" + stdout.String() + "-- stderr --\n" + stderr.String()
				if first == "" {
					first = got
				} else if got != first {
					t.Fatalf("-workers %s output differs from -workers 1", workers)
				}
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(want) != first {
				t.Fatalf("output differs from %s:\n-- got --\n%s\n-- want --\n%s", path, first, want)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":     {"-no-such-flag"},
		"positional args":  {"extra"},
		"bad sparse mode":  {"-sparse", "never"},
		"fractions over 1": {"-defect", "0.6", "-malicious", "0.6"},
		"negative defect":  {"-defect", "-0.1"},
		"fraction above 1": {"-defect", "-0.5", "-malicious", "1.2"},
		"zero runs":        {"-runs", "0"},
		"sparse frac taus": {"-sparse", "on", "-tauStep", "0.5"},
		"NaN tauStep":      {"-nodes", "40", "-rounds", "2", "-runs", "1", "-tauStep", "NaN"},
		"infinite tauStep": {"-nodes", "40", "-rounds", "2", "-runs", "1", "-tauStep", "+Inf"},
		"negative loss":    {"-nodes", "40", "-rounds", "2", "-loss", "-0.1"},
		"loss of 1":        {"-nodes", "40", "-rounds", "2", "-loss", "1"},
		"loss above 1":     {"-nodes", "40", "-rounds", "2", "-loss", "1.5"},
		"NaN loss":         {"-nodes", "40", "-rounds", "2", "-loss", "NaN"},
		"negative nodes":   {"-nodes", "-5", "-rounds", "2"},
		"negative rounds":  {"-nodes", "40", "-rounds", "-1"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// TestRunLossZeroIsLossless: protocol.Config reads a zero LossProb as
// DefaultLossProb, so -loss 0 must reach it as a negative value.
func TestRunLossZeroIsLossless(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nodes", "60", "-rounds", "3", "-loss", "0"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), " DroppedLoss:0 ") {
		t.Fatalf("-loss 0 dropped pushes: %s", stderr.String())
	}
}

// TestRunSparseWorkerDeterminism pins the CLI contract the run pool
// promises: the -workers value must not change one output byte, sparse
// path included.
func TestRunSparseWorkerDeterminism(t *testing.T) {
	sweep := func(workers string) string {
		var stdout, stderr bytes.Buffer
		args := []string{
			"-nodes", "300", "-rounds", "4", "-runs", "3", "-csv",
			"-sparse", "on", "-tauStep", "30", "-tauFinal", "40",
			"-workers", workers,
		}
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return stdout.String()
	}
	serial, parallel := sweep("1"), sweep("4")
	if serial != parallel {
		t.Fatalf("sparse sweep output depends on -workers:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", serial, parallel)
	}
	if !strings.HasPrefix(serial, "round,final,tentative,none") {
		t.Fatalf("unexpected CSV header: %q", serial[:min(len(serial), 60)])
	}
}
