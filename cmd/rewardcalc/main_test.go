package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no_such_file")
	stakeFile := func(name, bad string) string {
		// 20,000 ordinary accounts keep Algorithm 1 feasible, so only the
		// one bad line can make the run fail.
		body := strings.Repeat("100\n", 20_000) + bad + "\n"
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, args := range map[string][]string{
		"unknown flag":       {"-no-such-flag"},
		"positional args":    {"extra"},
		"bad distribution":   {"-dist", "lognormal"},
		"bad zipf exponent":  {"-dist", "zipf:xyz"},
		"NaN zipf exponent":  {"-dist", "zipf:NaN"},
		"Inf zipf exponent":  {"-dist", "zipf:+Inf"},
		"missing stake file": {"-stakes", missing},
		"negative stake":     {"-stakes", stakeFile("negative", "-50")},
		"NaN stake":          {"-stakes", stakeFile("nan", "NaN")},
		"infinite stake":     {"-stakes", stakeFile("inf", "Inf")},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

func TestRunCertifiesSmallPopulation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-dist", "u200", "-nodes", "1000"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(stdout.String(), "certified") {
		t.Fatalf("output misses the certification line:\n%s", stdout.String())
	}
}
