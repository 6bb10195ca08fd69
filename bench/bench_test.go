package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench command in the
// set-up children runWorkload starts.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestReduceTraces(t *testing.T) {
	blob, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := reduceTraces(string(blob))
	if err != nil {
		t.Fatal(err)
	}
	// Runtime leaves go to the repository caller (the map lookup to
	// protocol, the VRF's map write to sortition), vrf and stake fold
	// into sortition and weight, GC workers and the scheduler are
	// runtime, and the HTTP client and telemetry are other.
	want := map[string]float64{
		"protocol": 0.30, "sim": 0.20, "sortition": 0.10, "weight": 0.10,
		"runtime": 0.20, "other": 0.10,
	}
	if len(got) != len(want) {
		t.Fatalf("modules %v, want %v", got, want)
	}
	for mod, share := range want {
		if math.Abs(got[mod]-share) > 1e-12 {
			t.Errorf("%s share %g, want %g", mod, got[mod], share)
		}
	}
	if _, err := reduceTraces("File: bench\nType: cpu\n"); err == nil {
		t.Error("a profile without samples reduced without error")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if p, err := percentile(xs, 0.9); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it but was not refused")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples was not refused")
	}
	if _, err := percentile(xs, 0.5); err == nil {
		t.Error("percentile accepted p50; medians go through median")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// metrics the benchmark reports, with their units, and that every name
// is valid.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, es []entry, units map[string]string, limit int) {
		if len(es) > limit {
			t.Errorf("%d %s metrics, at most %d allowed", len(es), kind, limit)
		}
		for _, e := range es {
			if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) || seen[e.Name] {
				t.Errorf("bad or repeated %s metric %q (%q)", kind, e.Name, e.Unit)
			}
			seen[e.Name] = true
			if units[e.Name] != e.Unit {
				t.Errorf("%s metric %s: unit %q, the benchmark reports %q", kind, e.Name, e.Unit, units[e.Name])
			}
		}
		if len(es) != len(units) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(es), kind, len(units))
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits, 16)
	check("per-layer", spec.PerLayer, layerUnits, 128)
	setupBound := 0.0
	for _, e := range spec.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Fatalf("end-to-end metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setupBound = *e.Bound
		}
	}
	for _, e := range spec.EndToEnd {
		if *e.Bound > setupBound {
			t.Errorf("%s has bound %g, above setup_s's %g", e.Name, *e.Bound, setupBound)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload %q", w.Name)
		}
		seen[w.Name] = true
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks it passes its output checks and reports all of its
// metrics. The untraced runs go in parallel; the traced ones one at a
// time, since a process holds one CPU profile at a time.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				if !trace {
					t.Parallel()
				}
				checkTiny(t, w, trace)
			})
		}
	}
}

func checkTiny(t *testing.T, w workload, trace bool) {
	opt := options{workload: w.name, seed: 3, seconds: 1, trace: trace, work: t.TempDir()}
	res, err := runWorkload(w, tinySize, opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := endToEndUnits
	if trace {
		want = layerUnits
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v", name, m)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
	if !trace {
		return
	}
	// Every workload re-drives runs, so the phase timings are measured
	// everywhere; only the sparse path pushes no gossip messages.
	for _, name := range []string{"protocol.round_ms_p50", "protocol.vote_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if sent := res.Metrics["network.msgs_sent"].Value; (sent > 0) == (w.name == "fig3_sparse_50k") {
		t.Errorf("network.msgs_sent = %v", sent)
	}
	sum := 0.0
	for _, mod := range modules {
		sum += res.Metrics[mod+".cpu_s"].Value
	}
	if cpu := res.Metrics["process.cpu_s"].Value; math.Abs(sum-cpu) > 0.05*cpu {
		t.Errorf("module CPU sums to %g s, process CPU %g s", sum, cpu)
	}
}

// TestEndToEndWeighsTheMix checks that a pass with a partial cycle is
// reduced to one cycle of the mix, from per-input mean times and
// allocations.
func TestEndToEndWeighsTheMix(t *testing.T) {
	op := func(input, rounds int, msec float64, alloc uint64) opStats {
		return opStats{input: input, rounds: rounds, wall: time.Duration(msec * 1e6), allocBytes: alloc}
	}
	// Input 0 simulates 10 rounds (ran twice, 1 s and 3 s); input 1 is
	// served without simulating, three times a cycle (1 ms each).
	p := pass{ops: []opStats{
		op(0, 10, 1000, 10<<20), op(1, 0, 1, 0), op(1, 0, 1, 0), op(1, 0, 1, 0),
		op(0, 10, 3000, 30<<20), op(1, 0, 1, 0),
	}}
	m := map[string]metric{}
	if err := endToEnd(m, p, []int{1, 3}, 0.5); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rounds_per_s": 5, "alloc_mb_per_round": 2, "setup_s": 0.5}
	for name, v := range want {
		if math.Abs(m[name].Value-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name].Value, v)
		}
	}
	if err := endToEnd(m, pass{ops: p.ops[:4]}, []int{1, 3, 1}, 0.5); err == nil {
		t.Error("a mix input with no operation was not refused")
	}
}

// TestChildFailuresCount checks that a child that crashes, times out or
// leaves out a metric is an error, never a result.
func TestChildFailuresCount(t *testing.T) {
	dir := t.TempDir()
	script := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	w, _ := lookup("simd_jobs")
	opt := options{seed: 1, seconds: 1, work: dir}
	cases := map[string]string{
		"crash":   script("crash.sh", `echo '{"correct":true,"attempted":5,"failed":0,"metrics":{}}'; kill -SEGV $$`),
		"exit":    script("exit.sh", "exit 3"),
		"timeout": script("timeout.sh", "exec sleep 5"),
		"missing": script("missing.sh", `echo '{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}'`),
	}
	for name, exe := range cases {
		start := time.Now()
		if _, err := runChild(exe, w, opt, 500*time.Millisecond, io.Discard); err == nil {
			t.Errorf("%s: child reported no error", name)
		}
		if time.Since(start) > 3*time.Second {
			t.Errorf("%s: took %v to give up", name, time.Since(start))
		}
	}
}
