package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// The telemetry determinism contract: every simulation output must be
// byte-identical with metrics disabled, enabled, or scraped mid-run,
// and the deterministic registry totals must be identical at any worker
// count. These tests drive the two main streaming producers — the fig3
// sweep and a scenario grid cell — through all three telemetry states.

// obsFig3 runs a small fig3 sweep (with a recording sink, so the sink
// pipeline is exercised too) and returns the rendered CSV.
func obsFig3(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := DefaultFig3Config()
	cfg.Runs = 4
	cfg.Rounds = 8
	cfg.DefectionRates = []float64{0.10, 0.20}
	cfg.Workers = workers
	rec := newRecordingSink()
	cfg.Sink = rec
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(fmt.Sprintf("sink: %d events\n", len(rec.events)))
	return buf.Bytes()
}

// obsGridCell streams a 2-cell scenario grid and returns every sink
// event rendered to text.
func obsGridCell(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := FullScenarioGridConfig()
	cfg.Scenarios = []string{"honest_baseline", "crash_churn"}
	cfg.Seeds = []int64{1}
	cfg.Nodes = 60
	cfg.Rounds = 6
	cfg.Workers = workers
	rec := newRecordingSink()
	if err := StreamScenarioGrid(cfg, rec, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ev := range rec.events {
		fmt.Fprintf(&buf, "%+v\n", ev)
	}
	return buf.Bytes()
}

func TestTelemetryDeterminism(t *testing.T) {
	drivers := []struct {
		name string
		run  func(t *testing.T, workers int) []byte
	}{
		{"fig3", obsFig3},
		{"grid_cell", obsGridCell},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			obs.Disable()
			baseline := d.run(t, 1)

			// Metrics enabled: outputs byte-identical, and the registry's
			// deterministic totals must not depend on the worker count.
			totals := make([]map[string]uint64, 0, 2)
			for _, workers := range []int{1, 8} {
				obs.Disable()
				obs.Enable()
				got := d.run(t, workers)
				if !bytes.Equal(baseline, got) {
					t.Fatalf("output with metrics on (workers=%d) differs from metrics-off baseline", workers)
				}
				totals = append(totals, obs.Default().DeterministicTotals())
				obs.Disable()
			}
			if len(totals[0]) == 0 {
				t.Fatal("enabled run registered no deterministic metrics")
			}
			if fmt.Sprint(totals[0]) != fmt.Sprint(totals[1]) {
				t.Fatalf("deterministic totals differ between 1 and 8 workers:\n %v\n %v", totals[0], totals[1])
			}

			// Scraped concurrently mid-run: a scraper hammering the
			// Prometheus exporter must not change a byte of output.
			obs.Disable()
			reg := obs.Enable()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := reg.WritePrometheus(io.Discard); err != nil {
							panic(err)
						}
					}
				}
			}()
			got := d.run(t, 4)
			close(stop)
			wg.Wait()
			obs.Disable()
			if !bytes.Equal(baseline, got) {
				t.Fatal("output while scraped concurrently differs from baseline")
			}
		})
	}
}

// The sink instrumentation must count exactly what flowed through and
// classify audit events by severity.
func TestInstrumentedSinkCounts(t *testing.T) {
	obs.Disable()
	obs.Enable()
	defer obs.Disable()

	cfg := DefaultScenarioConfig("crash_churn")
	cfg.Nodes = 60
	cfg.Rounds = 6
	cfg.Runs = 3
	cfg.Workers = 1
	// Without a sink nothing reaches the caller, so the sink counters
	// stay at zero.
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	for key, v := range obs.Default().DeterministicTotals() {
		if v != 0 && (key == "exp_rows_streamed_total" || key == "exp_cells_done_total" ||
			strings.HasPrefix(key, "exp_audit_events_total")) {
			t.Fatalf("sinkless sweep counted %s = %d, want 0", key, v)
		}
	}
	obs.Disable()
	obs.Enable()

	rec := newRecordingSink()
	cfg.Sink = rec
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	totals := obs.Default().DeterministicTotals()
	if got := totals["exp_cells_done_total"]; got != uint64(cfg.Runs) {
		t.Fatalf("exp_cells_done_total = %d, want %d", got, cfg.Runs)
	}
	if got := totals["exp_rows_streamed_total"]; got != uint64(cfg.Runs*cfg.Rounds) {
		t.Fatalf("exp_rows_streamed_total = %d, want %d", got, cfg.Runs*cfg.Rounds)
	}
	audits := uint64(0)
	for key, v := range totals {
		if len(key) > len("exp_audit_events_total") && key[:len("exp_audit_events_total")] == "exp_audit_events_total" {
			audits += v
		}
	}
	if audits != uint64(cfg.Runs) {
		t.Fatalf("audit events by kind sum to %d, want %d", audits, cfg.Runs)
	}
	if got := totals["pool_runs_completed_total"]; got != uint64(cfg.Runs) {
		t.Fatalf("pool_runs_completed_total = %d, want %d", got, cfg.Runs)
	}
}

// A trace attached to run 0 must record spans without changing output,
// and only run 0 writes it.
func TestTraceDoesNotPerturbFig3(t *testing.T) {
	obs.Disable()
	baseline := obsFig3(t, 1)

	cfg := DefaultFig3Config()
	cfg.Runs = 4
	cfg.Rounds = 8
	cfg.DefectionRates = []float64{0.10, 0.20}
	cfg.Workers = 4
	cfg.Trace = obs.NewTrace(obs.DefaultTracePanel)
	rec := newRecordingSink()
	cfg.Sink = rec
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(fmt.Sprintf("sink: %d events\n", len(rec.events)))
	if !bytes.Equal(baseline, buf.Bytes()) {
		t.Fatal("tracing changed the fig3 output")
	}
	if cfg.Trace.Len() == 0 {
		t.Fatal("trace recorded no events")
	}
	var out bytes.Buffer
	if err := cfg.Trace.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
}
