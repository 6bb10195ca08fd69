package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	out := t.TempDir()
	for name, args := range map[string][]string{
		"unknown flag":   {"-no-such-flag"},
		"unknown target": {"-out", out, "fig99"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// TestRunFig3LargeSmoke exercises the sparse large-population target at a
// CI-smoke scale: above the auto threshold, trimmed to one run and a few
// rounds.
func TestRunFig3LargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{
		"-out", out,
		"-largeNodes", "5000", "-largeRounds", "2", "-largeRuns", "1",
		"fig3large",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if m, _ := filepath.Glob(filepath.Join(out, "fig3large_5000.csv")); len(m) != 1 {
		t.Fatalf("missing fig3large_5000.csv; stdout:\n%s", stdout.String())
	}
}
