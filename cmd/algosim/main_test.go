package main

import (
	"bytes"
	"strings"
	"testing"
)

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
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
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
