package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":          {"-no-such-flag"},
		"bad weight backend":    {"-weightBackend", "psychic"},
		"bad weights spec":      {"-weights", "zipf:not-a-number"},
		"bad sparse mode":       {"-sparse", "never"},
		"full conflicts nodes":  {"-full", "-nodes", "50"},
		"full conflicts seed":   {"-full", "-seed", "9"},
		"unknown scenario name": {"-out", t.TempDir(), "no_such_scenario"},
		"resume without full":   {"-resume"},
		"NaN tauStep":           {"-nodes", "40", "-rounds", "2", "-runs", "1", "-tauStep", "NaN", "-out", t.TempDir(), "honest_baseline"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		})
	}
}

// TestRunRetiredShardFlags pins that the retired shard axis is gone from
// the flag set rather than accepted and ignored: -shard and -mergeShards
// fail as undefined flags.
func TestRunRetiredShardFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"shard":       {"-full", "-shard", "0/2"},
		"mergeShards": {"-full", "-mergeShards"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
				t.Fatalf("run(%v): %v, want an undefined-flag error", args, err)
			}
		})
	}
}

// TestRunRejectsUnusableWeights pins that a sweep over weights sortition
// cannot use fails with the round check's typed error instead of
// reporting every round as a stall. The specs parse, but give +Inf
// weights, NaN weights, and 1e200 weights that churn to +Inf.
func TestRunRejectsUnusableWeights(t *testing.T) {
	for _, spec := range []string{"zipf:1.1:1e308", "zipf:-1e300", "zipf:1.1;churn@1:1:1e200,2:1:1e200"} {
		args := []string{"-nodes", "30", "-rounds", "3", "-runs", "1", "-weights", spec, "-out", t.TempDir(), "honest_baseline"}
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		var rangeErr *protocol.WeightRangeError
		if !errors.As(err, &rangeErr) {
			t.Errorf("-weights %q: err %v, want a WeightRangeError", spec, err)
		}
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "eclipse_equivocation") {
		t.Fatalf("-list output misses the bundled scenario:\n%s", stdout.String())
	}
}

// TestRunSparseSweep drives one tiny forced-sparse sweep end to end and
// checks the CSV outputs land.
func TestRunSparseSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{
		"-nodes", "200", "-rounds", "3", "-runs", "1", "-out", out,
		"-sparse", "on", "-tauStep", "30", "-tauFinal", "40",
		"eclipse_equivocation",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	for _, f := range []string{"scenario_eclipse_equivocation.csv", "scenario_eclipse_equivocation_audit.csv"} {
		if m, _ := filepath.Glob(filepath.Join(out, f)); len(m) != 1 {
			t.Fatalf("missing output %s", f)
		}
	}
}

// fullGridArgs is the reduced grid the end-to-end CLI tests drive: 2
// scenarios x 2 seeds at 60 nodes, 5 rounds — the CI smoke's shape.
func fullGridArgs(out string, extra ...string) []string {
	args := []string{
		"-full", "-fullNodes", "60", "-fullRounds", "5", "-fullSeeds", "2",
		"-out", out,
	}
	args = append(args, extra...)
	return append(args, "honest_baseline", "crash_churn")
}

// runGrid invokes run with the given args, failing the test on error.
func runGrid(t *testing.T, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String()
}

// readDirFiles maps name -> contents for every file in dir.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = blob
	}
	return out
}

// TestRunFullGridResume interrupts a -full grid by truncating its
// checkpoint to one recorded cell, resumes it, and pins every output
// file — checkpoint included — byte-identical to an uninterrupted run.
// It then cuts the healed checkpoint inside its header line, which must
// resume as a fresh start to the same files.
func TestRunFullGridResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cleanDir := t.TempDir()
	runGrid(t, fullGridArgs(cleanDir))
	want := readDirFiles(t, cleanDir)

	resumeDir := t.TempDir()
	runGrid(t, fullGridArgs(resumeDir))
	// "Kill" the finished run retroactively: keep the checkpoint header
	// plus one record and half of the next (a torn write), and delete
	// the outputs the missing cells would have produced.
	ckpt := filepath.Join(resumeDir, "full_grid_checkpoint_0of1.jsonl")
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(blob, []byte("\n"))
	torn := bytes.Join(lines[:2], nil)
	torn = append(torn, lines[2][:len(lines[2])/2]...)
	if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if strings.HasPrefix(name, "full_grid_") {
			continue // summaries and checkpoint stay as the kill left them
		}
		if strings.HasPrefix(name, "full_honest_baseline_s1") {
			continue // cell 0 is checkpointed, so its files predate the kill
		}
		if err := os.Remove(filepath.Join(resumeDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	out := runGrid(t, fullGridArgs(resumeDir, "-resume"))
	if !strings.Contains(out, "1 cells checkpointed") {
		t.Fatalf("resume did not restore the checkpointed cell:\n%s", out)
	}
	checkSameFiles(t, want, resumeDir)

	if err := os.WriteFile(ckpt, blob[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	out = runGrid(t, fullGridArgs(resumeDir, "-resume"))
	if !strings.Contains(out, "0 cells checkpointed") {
		t.Fatalf("a checkpoint torn inside its header did not resume as a fresh start:\n%s", out)
	}
	checkSameFiles(t, want, resumeDir)
}

// TestRunFullGridResumeRefusesBadCheckpoint pins the checkpoints -resume
// refuses instead of resuming from: records that skip a cell, a garbled
// record that complete records follow, a header naming a shard of the
// grid, and a garbled header that ends in a newline. Each fails before
// any cell runs and leaves the checkpoint as it found it.
func TestRunFullGridResumeRefusesBadCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cleanDir := t.TempDir()
	runGrid(t, fullGridArgs(cleanDir))
	blob, err := os.ReadFile(filepath.Join(cleanDir, "full_grid_checkpoint_0of1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Line 0 is the header, line k+1 the record of cell k.
	lines := bytes.SplitAfter(blob, []byte("\n"))
	otherShard := bytes.Replace(lines[0], []byte(`"shard":"0/1"`), []byte(`"shard":"1/3"`), 1)
	if bytes.Equal(otherShard, lines[0]) {
		t.Fatalf("header names no whole-grid shard: %s", lines[0])
	}
	for _, tc := range []struct {
		name    string
		ckpt    []byte
		wantErr string
	}{
		{"gapped", bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil), "line 3: cell 2 where cell 1 belongs"},
		{"corrupt record", bytes.Join([][]byte{lines[0], lines[1], []byte("garbled record\n"), lines[3]}, nil),
			"line 3: bad record"},
		{"other shard", bytes.Join(append([][]byte{otherShard}, lines[1:]...), nil), "sharded grids are gone"},
		{"garbled header", []byte("not a checkpoint\n"), "bad header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "full_grid_checkpoint_0of1.jsonl")
			if err := os.WriteFile(ckpt, tc.ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			err := run(fullGridArgs(dir, "-resume"), &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("-resume: %v, want an error saying %q", err, tc.wantErr)
			}
			got, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.ckpt) {
				t.Fatal("the refused checkpoint was rewritten")
			}
		})
	}
}

// checkSameFiles fails unless dir holds every file of want, byte for
// byte.
func checkSameFiles(t *testing.T, want map[string][]byte, dir string) {
	t.Helper()
	got := readDirFiles(t, dir)
	for name, blob := range want {
		if !bytes.Equal(got[name], blob) {
			t.Fatalf("%s differs between uninterrupted and resumed runs", name)
		}
	}
}
