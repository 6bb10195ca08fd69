package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// testGridSpec is the small two-scenario × two-seed grid the e2e tests
// sweep: big enough to exercise multi-cell streaming, small enough to
// run in milliseconds.
func testGridSpec() GridJobSpec {
	return GridJobSpec{
		Scenarios: []string{"crash_churn", "honest_baseline"},
		Seeds:     2,
		Nodes:     60,
		Rounds:    6,
	}
}

// startDaemon boots a daemon over httptest and returns its client.
func startDaemon(t *testing.T, dataDir string, maxWorkers int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	daemon, err := New(Config{DataDir: dataDir, MaxWorkers: maxWorkers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(daemon)
	t.Cleanup(ts.Close)
	return daemon, ts, &Client{Base: ts.URL}
}

// streamBytes submits req and reads the job's whole wire stream.
func streamBytes(t *testing.T, c *Client, req JobRequest) (JobStatus, []byte) {
	t.Helper()
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return jobBytes(t, c, st.ID)
}

// jobBytes reads a job's whole wire stream (which follows until the job
// settles) and its final status.
func jobBytes(t *testing.T, c *Client, id string) (JobStatus, []byte) {
	t.Helper()
	stream, err := c.Stream(id)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	blob, err := io.ReadAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return final, blob
}

// directWireBytes runs the job's grid in-process (no daemon) through
// the wire sink — the CLI-equivalent reference bytes.
func directWireBytes(t *testing.T, req JobRequest, workers int) []byte {
	t.Helper()
	cfg, _, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	var buf bytes.Buffer
	if err := experiments.StreamScenarioGrid(cfg, experiments.NewWireSink(&buf), experiments.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeCLIGridFiles replicates the `scenario -full` sink stack (CSV +
// stream summary, no checkpoint) into dir.
func writeCLIGridFiles(t *testing.T, spec GridJobSpec, dir string) {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	csv := experiments.NewGridCSVSink(dir, cfg, "full_grid_summary.csv")
	summary := experiments.NewSummarySink(0)
	if err := experiments.StreamScenarioGrid(cfg, experiments.MultiSink(csv, summary), experiments.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := csv.Close(); err != nil {
		t.Fatal(err)
	}
	table, err := summary.Table()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "full_grid_stream_summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// diffDirs asserts every file in want exists byte-identical in got.
func diffDirs(t *testing.T, want, got string) {
	t.Helper()
	entries, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("reference directory is empty")
	}
	for _, e := range entries {
		wantBlob, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatalf("daemon output missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(wantBlob, gotBlob) {
			t.Errorf("%s differs between CLI and daemon outputs", e.Name())
		}
	}
}

func TestGridJobMatchesCLIBytes(t *testing.T) {
	spec := testGridSpec()
	_, _, client := startDaemon(t, filepath.Join(t.TempDir(), "data"), 4)

	st, streamed := streamBytes(t, client, JobRequest{Kind: KindGrid, Grid: &spec})
	if st.State != JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Cells != 4 || st.CellsDone != 4 {
		t.Fatalf("cells %d done %d, want 4/4", st.Cells, st.CellsDone)
	}
	if want := directWireBytes(t, JobRequest{Kind: KindGrid, Grid: &spec}, 1); !bytes.Equal(streamed, want) {
		t.Fatal("daemon stream differs from in-process wire encoding")
	}

	// Replaying the stream client-side reproduces the CLI's files.
	cliDir := filepath.Join(t.TempDir(), "cli")
	gotDir := filepath.Join(t.TempDir(), "daemon")
	writeCLIGridFiles(t, spec, cliDir)
	violations, err := WriteGridOutputs(bytes.NewReader(streamed), spec, gotDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("unexpected safety violations: %d", violations)
	}
	diffDirs(t, cliDir, gotDir)

	// The job completed, so its durable state is gone: nothing to resume.
	matches, _ := filepath.Glob(filepath.Join(t.TempDir(), "data", "simd_*"))
	if len(matches) != 0 {
		t.Fatalf("completed job left durable files: %v", matches)
	}
}

func TestGridJobWorkerAndCacheInvariance(t *testing.T) {
	spec := testGridSpec()
	_, ts, client := startDaemon(t, "", 8)

	spec.Workers = 1
	cold, first := streamBytes(t, client, JobRequest{Kind: KindGrid, Grid: &spec})
	if cold.State != JobDone {
		t.Fatalf("cold job ended %s: %s", cold.State, cold.Error)
	}
	if cold.CachedCells != 0 {
		t.Fatalf("cold job reports %d cached cells", cold.CachedCells)
	}

	spec.Workers = 8
	warm, second := streamBytes(t, client, JobRequest{Kind: KindGrid, Grid: &spec})
	if warm.State != JobDone {
		t.Fatalf("warm job ended %s: %s", warm.State, warm.Error)
	}
	if warm.CachedCells != 4 {
		t.Fatalf("warm job served %d cells from cache, want 4", warm.CachedCells)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache-served stream differs from cold stream (worker budgets 1 vs 8)")
	}

	// The daemon's metric families are scrapeable and lint clean.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"simd_jobs_submitted_total", "simd_jobs_completed_total",
		"simd_cell_cache_hits_total", "simd_rows_streamed_total",
	} {
		if !strings.Contains(string(blob), family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}
	if families, err := obs.LintPrometheus(bytes.NewReader(blob)); err != nil {
		t.Fatalf("promlint: %v", err)
	} else if len(families) == 0 {
		t.Fatal("promlint saw no metric families")
	}
}

// wireLinesByCell splits an NDJSON stream into per-cell event lines.
func wireLinesByCell(t *testing.T, blob []byte) map[int][]string {
	t.Helper()
	out := map[int][]string{}
	for _, line := range strings.Split(strings.TrimRight(string(blob), "\n"), "\n") {
		var ev experiments.WireEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad wire line %q: %v", line, err)
		}
		out[ev.Cell] = append(out[ev.Cell], line)
	}
	return out
}

// TestShutdownCheckpointResume drains the daemon mid-job and restarts
// it: the job must resume from its checkpoint. A sweep job is its
// one-scenario grid, so it drains and resumes the same way.
func TestShutdownCheckpointResume(t *testing.T) {
	// 12-cell jobs at one worker: cells land one at a time, so a drain
	// triggered after the first cell interrupts mid-job.
	sweep := JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{
		CommonSpec: CommonSpec{Workers: 1}, Scenario: "crash_churn", Nodes: 80, Rounds: 8, Runs: 12,
	}}
	for _, tc := range []struct {
		name          string
		req           JobRequest
		copies, slots int
	}{
		{"grid", JobRequest{Kind: KindGrid, Grid: &GridJobSpec{
			Scenarios: []string{"crash_churn", "honest_baseline", "partition_healing"},
			Seeds:     4,
			Nodes:     80,
			Rounds:    8,
		}}, 1, 1},
		{"sweep", sweep, 1, 1},
		// The same sweep submitted twice on a budget that could run both
		// at once is one job: one spec file, one checkpoint, one resume.
		{"identical_sweeps", sweep, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) { testShutdownCheckpointResume(t, tc.req, tc.copies, tc.slots) })
	}
}

// testShutdownCheckpointResume submits req copies times to a daemon with
// slots worker slots, drains it once the job has a cell, and restarts it
// on the same data dir.
func testShutdownCheckpointResume(t *testing.T, req JobRequest, copies, slots int) {
	reference := directWireBytes(t, req, 1)
	refCells := wireLinesByCell(t, reference)

	dataDir := filepath.Join(t.TempDir(), "data")
	daemon, _, client := startDaemon(t, dataDir, slots)
	var st JobStatus
	for i := range copies {
		again, err := client.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			st = again
		} else if again.ID != st.ID {
			t.Fatalf("identical submission %d started %s beside the live %s", i, again.ID, st.ID)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		cur, err := client.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.CellsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed before the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := daemon.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	interrupted, err := client.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted.State == JobDone {
		t.Fatal("job finished before the drain landed: the drain must stop it at a cell boundary")
	}
	if interrupted.State != JobInterrupted {
		t.Fatalf("drained job ended %s: %s", interrupted.State, interrupted.Error)
	}

	// A fresh daemon on the same data dir re-enqueues and finishes the
	// job; its cache is empty, so only the checkpoint feeds the resume.
	_, _, client2 := startDaemon(t, dataDir, slots)
	var resumed JobStatus
	for deadline := time.Now().Add(60 * time.Second); ; {
		jobs, err := client2.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 1 {
			t.Fatalf("restarted daemon has %d jobs, want the one resumed", len(jobs))
		}
		resumed = jobs[0]
		if resumed.State == JobDone || resumed.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", resumed.State)
		}
		time.Sleep(time.Millisecond)
	}
	if resumed.State != JobDone {
		t.Fatalf("resumed job ended %s: %s", resumed.State, resumed.Error)
	}
	if resumed.RestoredCells < 1 || resumed.RestoredCells >= 12 {
		t.Fatalf("resumed job restored %d of 12 cells; the interrupt did not land mid-job", resumed.RestoredCells)
	}

	_, blob := jobBytes(t, client2, resumed.ID)
	// Restored cells replay audit-only; every remaining cell's event
	// lines must be byte-identical to the uninterrupted run's.
	restoredCells := 0
	for cell, lines := range wireLinesByCell(t, blob) {
		var start experiments.WireEvent
		if err := json.Unmarshal([]byte(lines[0]), &start); err != nil {
			t.Fatal(err)
		}
		if start.Restored {
			restoredCells++
			// The restored audit must match the reference cell's audit line.
			var auditLine string
			for _, l := range lines {
				if strings.Contains(l, `"event":"audit"`) {
					auditLine = l
				}
			}
			found := false
			for _, l := range refCells[cell] {
				if l == auditLine {
					found = true
				}
			}
			if !found {
				t.Errorf("cell %d: restored audit differs from the uninterrupted run", cell)
			}
			continue
		}
		if len(lines) != len(refCells[cell]) {
			t.Fatalf("cell %d: %d events, reference has %d", cell, len(lines), len(refCells[cell]))
		}
		for i := range lines {
			if lines[i] != refCells[cell][i] {
				t.Fatalf("cell %d event %d differs from the uninterrupted run:\n got %s\nwant %s",
					cell, i, lines[i], refCells[cell][i])
			}
		}
	}
	if restoredCells != resumed.RestoredCells {
		t.Fatalf("stream carries %d restored cells, status says %d", restoredCells, resumed.RestoredCells)
	}

	// Completion cleaned up the durable state.
	matches, _ := filepath.Glob(filepath.Join(dataDir, "simd_*"))
	if len(matches) != 0 {
		t.Fatalf("resumed job left durable files: %v", matches)
	}
}

func TestScenarioJob(t *testing.T) {
	_, _, client := startDaemon(t, "", 4)
	// A one-run sweep at seed 1 is the one-seed grid: same bytes, and its
	// one cell is served from the cache the grid job filled.
	grid, gridBlob := streamBytes(t, client, JobRequest{Kind: KindGrid, Grid: &GridJobSpec{
		Scenarios: []string{"honest_baseline"}, Seeds: 1, Nodes: 40, Rounds: 5,
	}})
	one, oneBlob := streamBytes(t, client, JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{
		Scenario: "honest_baseline", Nodes: 40, Rounds: 5, Runs: 1, Seed: 1,
	}})
	if grid.State != JobDone || one.State != JobDone {
		t.Fatalf("jobs ended %s and %s: %s%s", grid.State, one.State, grid.Error, one.Error)
	}
	if !bytes.Equal(gridBlob, oneBlob) {
		t.Fatal("one-run sweep stream differs from the one-seed grid's")
	}
	if one.CachedCells != 1 {
		t.Fatalf("one-run sweep served %d cells from the cache, want 1", one.CachedCells)
	}

	req := JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{
		Scenario: "honest_baseline", Nodes: 40, Rounds: 5, Runs: 3,
	}}
	st, blob := streamBytes(t, client, req)
	if st.State != JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Cells != 3 || st.CellsDone != 3 {
		t.Fatalf("cells %d done %d, want 3/3", st.Cells, st.CellsDone)
	}
	// The stream obeys the sink grammar end to end.
	if err := experiments.ReplayWire(bytes.NewReader(blob), &restoredCounter{}); err != nil {
		t.Fatal(err)
	}
	// Streams are worker-invariant for sweeps too: a second daemon, whose
	// cache is empty, simulates the sweep afresh at three workers.
	_, _, client2 := startDaemon(t, "", 4)
	req2 := JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{
		Scenario: "honest_baseline", Nodes: 40, Rounds: 5, Runs: 3, CommonSpec: CommonSpec{Workers: 3},
	}}
	st2, blob2 := streamBytes(t, client2, req2)
	if st2.State != JobDone {
		t.Fatalf("job ended %s: %s", st2.State, st2.Error)
	}
	if st2.CachedCells != 0 || st2.Workers != 3 {
		t.Fatalf("fresh sweep served %d cells from the cache at %d workers, want 0 at 3", st2.CachedCells, st2.Workers)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("sweep stream differs across worker budgets")
	}
}

// TestIdenticalJobsShareOneJob submits one sweep twice, at one worker
// each, to a two-slot daemon with a data dir while a grid holds both
// slots. The sweeps share a fingerprint, hence one spec file and one
// checkpoint, so the second submission must join the queued first job:
// one stream with the uninterrupted run's full bytes and nothing
// restored. Once that job is done, a resubmission is a new job served
// from the cache, and nothing durable outlives either.
func TestIdenticalJobsShareOneJob(t *testing.T) {
	req := JobRequest{Kind: KindScenario, Scenario: &ScenarioJobSpec{
		CommonSpec: CommonSpec{Workers: 1}, Scenario: "crash_churn", Nodes: 60, Rounds: 6, Runs: 6,
	}}
	want := directWireBytes(t, req, 1)
	dataDir := filepath.Join(t.TempDir(), "data")
	_, _, client := startDaemon(t, dataDir, 2)
	spec := testGridSpec()
	spec.Workers = 2
	blocker, err := client.Submit(JobRequest{Kind: KindGrid, Grid: &spec})
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("identical submission started %s beside the queued %s", second.ID, first.ID)
	}
	st, blob := jobBytes(t, client, first.ID)
	if st.State != JobDone || st.RestoredCells != 0 || !bytes.Equal(blob, want) {
		t.Fatalf("shared job ended %s with %d restored cells; stream equal to the uninterrupted run: %v",
			st.State, st.RestoredCells, bytes.Equal(blob, want))
	}
	again, blob := streamBytes(t, client, req)
	if again.ID == first.ID || again.CachedCells != 6 || !bytes.Equal(blob, want) {
		t.Fatalf("resubmission after completion: job %s, %d cached cells; stream equal: %v",
			again.ID, again.CachedCells, bytes.Equal(blob, want))
	}
	if st, _ := jobBytes(t, client, blocker.ID); st.State != JobDone {
		t.Fatalf("grid job ended %s: %s", st.State, st.Error)
	}
	matches, _ := filepath.Glob(filepath.Join(dataDir, "simd_*"))
	if len(matches) != 0 {
		t.Fatalf("completed jobs left durable files: %v", matches)
	}
}

// badJobRequests are specs the daemon must refuse at POST, before
// queueing: each fails resolve.
func badJobRequests() []JobRequest {
	return []JobRequest{
		{Kind: "nope"},
		{Kind: KindGrid, Grid: &GridJobSpec{Scenarios: []string{"not_a_scenario"}}},
		{Kind: KindGrid, Grid: &GridJobSpec{Seeds: -1}},
		{Kind: KindGrid, Grid: &GridJobSpec{Seeds: maxGridSeeds + 1}},
		{Kind: KindGrid, Grid: &GridJobSpec{Nodes: -5}},
		{Kind: KindGrid, Grid: &GridJobSpec{Nodes: 5}},
		{Kind: KindGrid, Grid: &GridJobSpec{Nodes: maxJobNodes + 1}},
		{Kind: KindGrid, Grid: &GridJobSpec{Rounds: -1}},
		{Kind: KindGrid, Grid: &GridJobSpec{Rounds: maxJobRounds + 1}},
		{Kind: KindGrid, Grid: &GridJobSpec{CommonSpec: CommonSpec{Sparse: "sideways"}}},
		{Kind: KindGrid, Grid: &GridJobSpec{CommonSpec: CommonSpec{Weights: "zipf:1.1:0"}}},
		{Kind: KindGrid, Grid: &GridJobSpec{CommonSpec: CommonSpec{TauStep: -1}}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Scenario: "not_a_scenario"}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Nodes: -5}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Nodes: 5}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Nodes: maxJobNodes + 1}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Rounds: -1}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Rounds: maxJobRounds + 1}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Runs: -1}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{Runs: maxGridSeeds + 1}},
		{Kind: KindScenario, Scenario: &ScenarioJobSpec{CommonSpec: CommonSpec{TauFinal: -1}}},
		{Kind: KindGrid, Scenario: &ScenarioJobSpec{}},
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	daemon, _, client := startDaemon(t, "", 2)
	for _, req := range badJobRequests() {
		if _, err := client.Submit(req); err == nil {
			t.Errorf("submit accepted bad request %+v", req)
		}
	}
	// The seed and run caps are checked before the seed list is
	// allocated: a request for 2^40 seeds or runs costs no more than any
	// other bad request.
	for name, req := range map[string]JobRequest{
		"seeds": {Kind: KindGrid, Grid: &GridJobSpec{Seeds: 1 << 40}},
		"runs":  {Kind: KindScenario, Scenario: &ScenarioJobSpec{Runs: 1 << 40}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := client.Submit(req)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("submit accepted 2^40 %s", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("rejecting 2^40 %s allocated %d bytes, want < 1 MiB", name, got)
		}
	}
	if n := len(daemon.Jobs()); n != 0 {
		t.Errorf("bad requests created %d jobs", n)
	}
	if _, err := client.Status("job-404"); err == nil {
		t.Error("status of unknown job did not error")
	}
}

// TestUnusableWeightsFailJob pins that a job whose weights parse but
// break sortition (+Inf, NaN, and 1e200 churned to +Inf) fails with the
// round check's error instead of completing as a grid of stalls.
func TestUnusableWeightsFailJob(t *testing.T) {
	_, _, client := startDaemon(t, "", 2)
	for _, spec := range []string{"zipf:1.1:1e308", "zipf:-1e300", "zipf:1.1;churn@1:1:1e200,2:1:1e200"} {
		st, _ := streamBytes(t, client, JobRequest{Kind: KindGrid, Grid: &GridJobSpec{
			CommonSpec: CommonSpec{Weights: spec},
			Scenarios:  []string{"honest_baseline"}, Seeds: 1, Nodes: 30, Rounds: 3,
		}})
		if st.State != JobFailed || !strings.Contains(st.Error, "weight") {
			t.Errorf("weights %q: job ended %s (%q), want failed on a weight range error", spec, st.State, st.Error)
		}
	}
}

func TestSubmitRejectsOversizedBody(t *testing.T) {
	daemon, ts, _ := startDaemon(t, "", 2)
	// A well-formed grid request whose one scenario name pushes the body
	// past the cap: the daemon must stop reading and answer 413.
	body := `{"kind":"grid","grid":{"scenarios":["` + strings.Repeat("a", maxJobRequestBytes) + `"]}}`
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if n := len(daemon.Jobs()); n != 0 {
		t.Fatalf("oversized request created %d jobs", n)
	}
}

func TestSSEFraming(t *testing.T) {
	_, ts, client := startDaemon(t, "", 2)
	spec := testGridSpec()
	st, err := client.Submit(JobRequest{Kind: KindGrid, Grid: &spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/stream?sse=1", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n\n")
	if len(lines) == 0 {
		t.Fatal("no SSE messages")
	}
	for _, msg := range lines {
		if !strings.HasPrefix(msg, "data: ") {
			t.Fatalf("SSE message %q lacks data: prefix", msg)
		}
	}
}

// TestFailedJobNotResumed pins that a job which fails is not resubmitted
// by every restart. A spec whose checkpoint cannot be read resumes once,
// fails, and has its files quarantined, so the next restart resumes
// nothing.
func TestFailedJobNotResumed(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	spec := testGridSpec()
	req := JobRequest{Kind: KindGrid, Grid: &spec}
	cfg, weightsSpec, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := experiments.GridFingerprint(cfg, weightsSpec)
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	probe := &Server{cfg: Config{DataDir: dataDir}}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(probe.specPath(fingerprint), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(probe.ckptPath(fingerprint), []byte("not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	settled := func(client *Client) []JobStatus {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; {
			jobs, err := client.List()
			if err != nil {
				t.Fatal(err)
			}
			done := true
			for _, j := range jobs {
				done = done && (j.State == JobDone || j.State == JobFailed)
			}
			if done {
				return jobs
			}
			if time.Now().After(deadline) {
				t.Fatalf("jobs did not settle: %+v", jobs)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first, _, client := startDaemon(t, dataDir, 2)
	jobs := settled(client)
	if len(jobs) != 1 || jobs[0].State != JobFailed {
		t.Fatalf("first restart: jobs %+v, want one failed", jobs)
	}
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, client2 := startDaemon(t, dataDir, 2)
	if jobs := settled(client2); len(jobs) != 0 {
		t.Fatalf("second restart resumed %d jobs, want none: %+v", len(jobs), jobs)
	}
	for _, path := range []string{probe.specPath(fingerprint), probe.ckptPath(fingerprint)} {
		if _, err := os.Stat(path + ".failed"); err != nil {
			t.Errorf("quarantined copy of %s: %v", filepath.Base(path), err)
		}
	}
}
