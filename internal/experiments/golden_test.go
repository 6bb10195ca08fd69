package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/evolution"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/stats"
)

// updateGolden regenerates the pinned outputs under testdata/. Run
//
//	go test ./internal/experiments -run TestGolden -update
//
// after an intentional behaviour change; any other diff against the
// goldens is a regression. The goldens were first generated from the
// pre-optimization hot path, so they prove the allocation-lean round
// loop is bit-for-bit identical to the original implementation.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json")

// goldenWorkers are the run-pool widths every golden is checked at; the
// figure outputs must be identical for all of them.
var goldenWorkers = []int{1, 8}

// goldenCase produces one experiment's pinned table for a given worker
// count. Configurations are deliberately small (seconds, not minutes) but
// exercise the full protocol/sortition hot path at fixed seeds.
type goldenCase struct {
	name string
	run  func(workers int) (*stats.Table, error)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "table3", run: func(workers int) (*stats.Table, error) {
			res, err := RunTable3()
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{name: "fig3", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultFig3Config()
			cfg.Runs = 3
			cfg.Rounds = 4
			cfg.DefectionRates = []float64{0.05, 0.15}
			cfg.Workers = workers
			res, err := RunFig3(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		// The sparse path: fig6 and fig7 run 2,000 nodes, below
		// SparseAutoThreshold, so this is the only golden that pins
		// committee sampling, mean-field delivery and panel extrapolation.
		{name: "fig3_sparse", run: func(workers int) (*stats.Table, error) {
			cfg := LargeFig3Config(5_000)
			cfg.Sparse = protocol.SparseOn
			cfg.Params.TauStep = 100
			cfg.Params.TauFinal = 150
			cfg.DefectionRates = []float64{0.10, 0.20}
			cfg.Runs = 2
			cfg.Rounds = 2
			cfg.Workers = workers
			res, err := RunFig3(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		// A desync-heavy crash-churn sweep: many catch-up clones per round
		// pin the copy-on-write ledger views. The golden was generated
		// where these outputs matched a deep-copy run; the audit columns
		// follow the per-round outcome columns.
		{name: "crash_churn", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultScenarioConfig("crash_churn")
			cfg.Nodes = 50
			cfg.Rounds = 8
			cfg.Runs = 3
			cfg.Workers = workers
			res, err := RunScenario(cfg)
			if err != nil {
				return nil, err
			}
			t := res.Table()
			t.Columns = append(t.Columns, res.AuditTable().Columns...)
			return t, nil
		}},
		{name: "fig5", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultFig5Config()
			cfg.Workers = workers
			res, err := RunFig5(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{name: "fig6", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultFig6Config()
			cfg.Nodes = 2_000
			cfg.Runs = 4
			cfg.RoundsPerRun = 2
			cfg.Workers = workers
			res, err := RunFig6(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{name: "fig7", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultFig7Config()
			cfg.Nodes = 2_000
			cfg.Runs = 4
			cfg.Workers = workers
			res, err := RunFig7(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{name: "equilibrium", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultEquilibriumConfig()
			cfg.Samples = 12
			cfg.Workers = workers
			res, err := RunEquilibrium(cfg)
			if err != nil {
				return nil, err
			}
			n := float64(res.Config.Samples)
			t := &stats.Table{}
			t.AddColumn("theorem1", []float64{float64(res.Theorem1) / n})
			t.AddColumn("theorem2", []float64{float64(res.Theorem2) / n})
			t.AddColumn("lemma1", []float64{float64(res.Lemma1) / n})
			t.AddColumn("theorem3", []float64{float64(res.Theorem3) / n})
			t.AddColumn("tightness", []float64{float64(res.Tightness) / n})
			return t, nil
		}},
		{name: "evolution", run: func(workers int) (*stats.Table, error) {
			return evolutionTable()
		}},
		{name: "headlines", run: headlinesTable},
		{name: "weaksync", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultWeakSyncConfig()
			cfg.Runs = 3
			cfg.Rounds = 10
			cfg.WindowFrom, cfg.WindowTo = 4, 5
			cfg.Workers = workers
			res, err := RunWeakSync(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		// Costs is one run with no worker pool; its pooled task counters
		// follow the per-round cost columns.
		{name: "costs", run: func(int) (*stats.Table, error) {
			res, err := RunCosts(DefaultCostsConfig())
			if err != nil {
				return nil, err
			}
			t := res.Table()
			for _, c := range []struct {
				name   string
				counts protocol.TaskCounts
			}{{"honest", res.HonestCounts}, {"selfish", res.SelfishCounts}} {
				t.AddColumn(c.name+"_counts", []float64{
					float64(c.counts.Verify), float64(c.counts.Seed), float64(c.counts.Sortition),
					float64(c.counts.VerifyProof), float64(c.counts.Propose), float64(c.counts.Gossip),
					float64(c.counts.SelectBlock), float64(c.counts.Vote), float64(c.counts.CountVotes),
				})
			}
			return t, nil
		}},
		{name: "mixed", run: func(workers int) (*stats.Table, error) {
			cfg := DefaultMixedConfig()
			cfg.Nodes = 60
			cfg.Runs = 2
			cfg.Rounds = 4
			cfg.Workers = workers
			res, err := RunMixed(cfg)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
	}
}

// evolutionTable pins the best-response dynamics at DefaultConfig under
// both schemes, one column set per scheme. The mean-payoff diagnostics
// are left out: no figure reads them.
func evolutionTable() (*stats.Table, error) {
	names := []string{"coop_all", "coop_leaders", "coop_committee", "coop_sync",
		"produced", "reward_B", "strat_leaders", "strat_committee", "strat_others"}
	t := &stats.Table{}
	for _, scheme := range []evolution.SchemeKind{evolution.SchemeFoundation, evolution.SchemeRoleBased} {
		res, err := evolution.Run(evolution.DefaultConfig(scheme))
		if err != nil {
			return nil, err
		}
		cols := make([][]float64, len(names))
		for c := range cols {
			cols[c] = make([]float64, len(res.Stats))
		}
		for i, s := range res.Stats {
			produced := 0.0
			if s.BlockProduced {
				produced = 1
			}
			row := []float64{s.CoopAll, s.CoopLeaders, s.CoopCommittee, s.CoopSyncSet,
				produced, s.RewardB, s.StratLeaders, s.StratCommittee, s.StratOthers}
			for c, v := range row {
				cols[c][i] = v
			}
		}
		for c, name := range names {
			t.AddColumn(scheme.String()+"_"+name, cols[c])
		}
	}
	return t, nil
}

// headlinesTable pins one headline value per experiment family in a
// one-row table: Fig. 3's mean final fraction at 15% defection, Table
// III's period-1 per-round reward, Fig. 5's grid-search B*, the eclipse
// scenario's mean final fraction, and, from one streamed pass over a
// 2×2 -full grid, the cells' mean final fraction and the merged p50 of
// the per-round final fraction.
func headlinesTable(workers int) (*stats.Table, error) {
	fig3 := DefaultFig3Config()
	fig3.Runs = 1
	fig3.Rounds = 5
	fig3.DefectionRates = []float64{0.15}
	fig3.Workers = workers
	res3, err := RunFig3(fig3)
	if err != nil {
		return nil, err
	}
	res3T, err := RunTable3()
	if err != nil {
		return nil, err
	}
	fig5 := DefaultFig5Config()
	fig5.Workers = workers
	res5, err := RunFig5(fig5)
	if err != nil {
		return nil, err
	}
	scn := DefaultScenarioConfig(adversary.EclipseEquivocation)
	scn.Nodes = 60
	scn.Rounds = 8
	scn.Runs = 2
	scn.Workers = workers
	scnRes, err := RunScenario(scn)
	if err != nil {
		return nil, err
	}
	grid := FullScenarioGridConfig()
	grid.Scenarios = []string{adversary.HonestBaseline, "crash_churn"}
	grid.Seeds = []int64{1, 2}
	grid.Nodes = 60
	grid.Rounds = 6
	grid.Workers = workers
	var cells gridCells
	summary := NewSummarySink(0)
	if err := StreamScenarioGrid(grid, MultiSink(&cells, summary), StreamOptions{}); err != nil {
		return nil, err
	}
	gridFinal := 0.0
	for _, c := range cells {
		gridFinal += c.Audit.MeanFinalFrac
	}
	summaryTable, err := summary.Table()
	if err != nil {
		return nil, err
	}
	var p50 []float64
	for _, col := range summaryTable.Columns {
		if col.Name == "p50" {
			p50 = col.Values[:1]
		}
	}
	if p50 == nil {
		return nil, fmt.Errorf("stream summary has no p50 column")
	}
	t := &stats.Table{}
	t.AddColumn("fig3_mean_final_d15", []float64{res3.Series[0].MeanFinal()})
	t.AddColumn("table3_per_round_period1", []float64{res3T.Rows[0].PerRound})
	t.AddColumn("fig5_min_b_grid", []float64{res5.GridBest.B})
	t.AddColumn("scenario_eclipse_mean_final", []float64{scnRes.Audit.MeanFinalFrac})
	t.AddColumn("full_grid_mean_final", []float64{gridFinal / float64(len(cells))})
	t.AddColumn("full_grid_stream_p50_final", p50)
	return t, nil
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

// marshalTable renders a table as indented JSON. encoding/json emits
// float64 with shortest-round-trip precision, so the comparison is exact
// to the last bit.
func marshalTable(t *stats.Table) ([]byte, error) {
	out, err := json.MarshalIndent(t.Columns, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			var first []byte
			for _, workers := range goldenWorkers {
				table, err := gc.run(workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got, err := marshalTable(table)
				if err != nil {
					t.Fatalf("workers=%d: marshal: %v", workers, err)
				}
				if first == nil {
					first = got
				} else if string(first) != string(got) {
					t.Fatalf("workers=%d output differs from workers=%d", workers, goldenWorkers[0])
				}
			}
			path := goldenPath(gc.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, first, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(want) != string(first) {
				t.Fatal(diffHint(gc.name, want, first))
			}
		})
	}
}

// diffHint reports the first differing line so a golden failure is
// actionable without external tooling.
func diffHint(name string, want, got []byte) string {
	w, g := string(want), string(got)
	line := 1
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("%s: output diverges from golden at byte %d (line %d); rerun with -update only if the change is intentional", name, i, line)
		}
		if w[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("%s: output length %d differs from golden length %d", name, len(g), len(w))
}
