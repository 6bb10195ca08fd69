package simd

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
)

// craftedCell renders one complete grid cell as wire events with the
// given identity, bypassing the wire sink.
func craftedCell(index, name, seed string) string {
	return `{"event":"cell_start","cell":` + index + `,"name":"` + name + `","seed":` + seed + `,"columns":["final","tentative","none"]}
{"event":"row","cell":` + index + `,"values":[1,0,0]}
{"event":"audit","cell":` + index + `,"audit":{}}
{"event":"cell_done","cell":` + index + `}
`
}

// filesOutside lists the files under root that are not inside dir.
func filesOutside(t *testing.T, root, dir string) []string {
	t.Helper()
	var stray []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(path, dir+string(filepath.Separator)) {
			stray = append(stray, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stray
}

// TestWriteGridOutputsRejectsForeignCells replays streams whose cells
// the submitted grid does not hold: each must fail, and nothing may be
// written outside the output directory.
func TestWriteGridOutputsRejectsForeignCells(t *testing.T) {
	spec := GridJobSpec{Scenarios: []string{"honest_baseline"}, Seeds: 2, Nodes: 10, Rounds: 1}
	for name, stream := range map[string]string{
		"path in the name":  craftedCell("0", "x/../../escaped", "1"),
		"negative index":    craftedCell("-1", "honest_baseline", "1"),
		"index past grid":   craftedCell("2", "honest_baseline", "1"),
		"foreign seed":      craftedCell("0", "honest_baseline", "2"),
		"cell out of order": craftedCell("1", "honest_baseline", "2") + craftedCell("0", "honest_baseline", "1"),
		"cell repeated":     craftedCell("0", "honest_baseline", "1") + craftedCell("0", "honest_baseline", "1"),
	} {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "out")
			if _, err := WriteGridOutputs(strings.NewReader(stream), spec, dir, nil); err == nil {
				t.Fatal("foreign cell accepted")
			}
			if stray := filesOutside(t, root, dir); len(stray) > 0 {
				t.Fatalf("wrote outside %s: %v", dir, stray)
			}
		})
	}
}

// dropCell forwards a grid stream to Sink without the events of cell
// drop and with the audit of cell twice sent twice.
type dropCell struct {
	experiments.Sink
	drop, twice int
}

func (d dropCell) CellStart(cell experiments.Cell, columns []string) error {
	if cell.Index == d.drop {
		return nil
	}
	return d.Sink.CellStart(cell, columns)
}

func (d dropCell) Row(cell experiments.Cell, row experiments.Row) error {
	if cell.Index == d.drop {
		return nil
	}
	return d.Sink.Row(cell, row)
}

func (d dropCell) AuditEvent(cell experiments.Cell, report adversary.Report) error {
	if cell.Index == d.drop {
		return nil
	}
	if cell.Index == d.twice {
		if err := d.Sink.AuditEvent(cell, report); err != nil {
			return err
		}
	}
	return d.Sink.AuditEvent(cell, report)
}

func (d dropCell) CellDone(cell experiments.Cell) error {
	if cell.Index == d.drop {
		return nil
	}
	return d.Sink.CellDone(cell)
}

// TestWriteGridOutputsRejectsMissingCells replays the stream of a 2×2
// grid with one cell left out, in the middle (cell 1) or at the end
// (cell 3), with cell 3 left out and cell 2's audit sent twice, and an
// empty stream: each must fail and write no grid summary.
func TestWriteGridOutputsRejectsMissingCells(t *testing.T) {
	spec := GridJobSpec{Scenarios: []string{"honest_baseline", "crash_churn"}, Seeds: 2, Nodes: 20, Rounds: 2}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{"no cell": nil}
	for _, c := range []struct {
		name        string
		drop, twice int
	}{
		{"cell 1 dropped", 1, -1},
		{"cell 3 dropped", 3, -1},
		{"cell 2 audited twice, cell 3 dropped", 3, 2},
	} {
		var stream bytes.Buffer
		if err := experiments.StreamScenarioGrid(cfg, dropCell{experiments.NewWireSink(&stream), c.drop, c.twice},
			experiments.StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		streams[c.name] = stream.Bytes()
	}
	for name, stream := range streams {
		dir := t.TempDir()
		if _, err := WriteGridOutputs(bytes.NewReader(stream), spec, dir, nil); err == nil {
			t.Errorf("%s: the stream was accepted", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "full_grid_summary.csv")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: full_grid_summary.csv was written (stat: %v)", name, err)
		}
	}
}

// FuzzReplayWire mutates a real grid stream: replaying it into the
// client's sink stack must never panic and never write outside the
// output directory.
func FuzzReplayWire(f *testing.F) {
	spec := GridJobSpec{Scenarios: []string{"honest_baseline", "crash_churn"}, Seeds: 1, Nodes: 12, Rounds: 2}
	cfg, err := spec.Config()
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	if err := experiments.StreamScenarioGrid(cfg, experiments.NewWireSink(&stream), experiments.StreamOptions{}); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	f.Add([]byte(craftedCell("0", "x/../../escaped", "1")))
	f.Add([]byte(craftedCell("-1", "honest_baseline", "1")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Nest the output directory so an escape lands inside root.
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "out")
		_, _ = WriteGridOutputs(bytes.NewReader(data), spec, dir, nil)
		if stray := filesOutside(t, root, dir); len(stray) > 0 {
			t.Fatalf("wrote outside %s: %v", dir, stray)
		}
	})
}
