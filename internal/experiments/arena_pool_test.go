package experiments

import (
	"reflect"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/protocol"
)

// TestSweepsShareArenasChangeNoBytes pins arena transparency across
// sweeps. Arenas outlive their sweep through arenaPool, so each sweep
// here runs on arenas that sweeps of other shapes grew — a dense fig3,
// a sparse fig3 and a scenario grid with an adversary, twice over — and
// must return on its second pass exactly what it returned on its first.
func TestSweepsShareArenasChangeNoBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	dense := DefaultFig3Config()
	dense.Nodes, dense.Runs, dense.Rounds, dense.Workers = 60, 2, 3, 2
	dense.DefectionRates = []float64{0.1, 0.3}
	sparse := LargeFig3Config(300)
	sparse.Sparse = protocol.SparseOn
	sparse.Runs, sparse.Rounds, sparse.Workers = 2, 2, 2
	sparse.DefectionRates = []float64{0.1}
	grid := smallGridConfig()
	grid.Scenarios = []string{"eclipse_equivocation"}
	grid.Workers = 2

	sweeps := []struct {
		name string
		run  func() (any, error)
	}{
		{"dense fig3", func() (any, error) { return RunFig3(dense) }},
		{"sparse fig3", func() (any, error) { return RunFig3(sparse) }},
		{"scenario grid", func() (any, error) { return streamGrid(grid) }},
	}
	first := make([]any, len(sweeps))
	for pass := 0; pass < 2; pass++ {
		for i, sw := range sweeps {
			out, err := sw.run()
			if err != nil {
				t.Fatalf("%s: %v", sw.name, err)
			}
			if pass == 0 {
				first[i] = out
			} else if !reflect.DeepEqual(out, first[i]) {
				t.Errorf("%s returned other results after sweeps of other shapes", sw.name)
			}
		}
	}
}
