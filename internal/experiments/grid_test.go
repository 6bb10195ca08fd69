package experiments

import (
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

func smallGridConfig() ScenarioGridConfig {
	cfg := FullScenarioGridConfig()
	cfg.Scenarios = []string{adversary.HonestBaseline, "crash_churn"}
	cfg.Seeds = []int64{1, 2}
	cfg.Nodes = 40
	cfg.Rounds = 5
	return cfg
}

// gridCells collects a grid's event stream back into GridCells, in
// stream order.
type gridCells []GridCell

func (s *gridCells) CellStart(cell Cell, _ []string) error {
	*s = append(*s, GridCell{Scenario: cell.Name, Seed: cell.Seed})
	return nil
}

func (s *gridCells) Row(_ Cell, row Row) error {
	c := &(*s)[len(*s)-1]
	c.Final = append(c.Final, row.Values[0])
	c.Tentative = append(c.Tentative, row.Values[1])
	c.None = append(c.None, row.Values[2])
	return nil
}

func (s *gridCells) AuditEvent(_ Cell, report adversary.Report) error {
	(*s)[len(*s)-1].Audit = report
	return nil
}

func (s *gridCells) CellDone(Cell) error { return nil }

// streamGrid runs cfg through StreamScenarioGrid and returns its cells.
func streamGrid(cfg ScenarioGridConfig) ([]GridCell, error) {
	var cells gridCells
	err := StreamScenarioGrid(cfg, &cells, StreamOptions{})
	return cells, err
}

// gridSummary renders whole-grid cells as full_grid_summary.csv's table.
func gridSummary(cfg ScenarioGridConfig, cells []GridCell) *stats.Table {
	idx := make([]int, len(cells))
	reports := make([]adversary.Report, len(cells))
	for i, c := range cells {
		idx[i], reports[i] = i, c.Audit
	}
	return gridSummaryTable(cfg, idx, reports)
}

// gridSafetyViolations sums conflicting-finalisation rounds across cells.
func gridSafetyViolations(cells []GridCell) int {
	total := 0
	for _, c := range cells {
		total += c.Audit.SafetyViolations
	}
	return total
}

func gridDigest(t *testing.T, cells []GridCell) string {
	t.Helper()
	out := ""
	for _, c := range cells {
		table, err := marshalTable(c.Table())
		if err != nil {
			t.Fatal(err)
		}
		audit, err := marshalTable(c.AuditTable())
		if err != nil {
			t.Fatal(err)
		}
		out += c.Scenario + ":" + string(table) + string(audit)
	}
	return out
}

// TestScenarioGridShapeAndSafety runs a small grid end to end: every
// cell present in grid order, every round observed, no safety
// violations on the bundled scenarios.
func TestScenarioGridShapeAndSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	cells, err := streamGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		wantScn := cfg.Scenarios[i/2]
		wantSeed := cfg.Seeds[i%2]
		if c.Scenario != wantScn || c.Seed != wantSeed {
			t.Fatalf("cell %d is (%s, %d), want (%s, %d)", i, c.Scenario, c.Seed, wantScn, wantSeed)
		}
		if c.Audit.Rounds != cfg.Rounds {
			t.Fatalf("cell %d observed %d rounds, want %d", i, c.Audit.Rounds, cfg.Rounds)
		}
		if len(c.Final) != cfg.Rounds {
			t.Fatalf("cell %d has %d per-round rows, want %d", i, len(c.Final), cfg.Rounds)
		}
	}
	if v := gridSafetyViolations(cells); v != 0 {
		t.Fatalf("safety violated %d times on bundled scenarios", v)
	}
	if got := gridSummary(cfg, cells).Columns[0].Name; got != "scenario_idx" {
		t.Fatalf("summary table first column %q", got)
	}
}

// TestScenarioGridDeterministicAcrossWorkers pins the grid's run-pool
// contract: any worker count yields bit-identical cells, which also
// proves the per-worker arenas leak no state between cells (workers pick
// up different cell subsets at different widths).
func TestScenarioGridDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := smallGridConfig()
	var first string
	for _, workers := range []int{1, 2, 3, 8} {
		cfg.Workers = workers
		cells, err := streamGrid(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		digest := gridDigest(t, cells)
		if first == "" {
			first = digest
		} else if digest != first {
			t.Fatalf("workers=%d grid differs from workers=1", workers)
		}
	}
}

// TestScenarioGridUnknownScenario fails fast.
func TestScenarioGridUnknownScenario(t *testing.T) {
	cfg := smallGridConfig()
	cfg.Scenarios = []string{"no_such_scenario"}
	if _, err := streamGrid(cfg); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestEclipseArenaDeterministicAcrossWorkers extends the eclipse
// determinism pin to odd worker counts, exercising arena reuse under
// maximally uneven run-to-worker assignments.
func TestEclipseArenaDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	run := func(workers int) string {
		cfg := DefaultScenarioConfig(adversary.EclipseEquivocation)
		cfg.Nodes = 50
		cfg.Rounds = 6
		cfg.Runs = 5
		cfg.Workers = workers
		res, err := RunScenario(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		table, err := marshalTable(res.Table())
		if err != nil {
			t.Fatal(err)
		}
		return string(table)
	}
	first := run(1)
	for _, workers := range []int{2, 3, 5} {
		if got := run(workers); got != first {
			t.Fatalf("workers=%d eclipse output differs from workers=1", workers)
		}
	}
}
