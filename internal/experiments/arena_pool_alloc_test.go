//go:build !race

// Under the race detector sync.Pool drops a share of Puts on purpose,
// so the allocation check below runs only without it.

package experiments

import (
	"runtime"
	"testing"
)

// TestRepeatedSweepReusesArenas checks that sweeps share arenas: a
// repeat of a grid sweep allocates under half of what the same sweep
// allocates with a new protocol.Arena per worker (materializeCells). It
// fails if arenas stop outliving their sweep.
func TestRepeatedSweepReusesArenas(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	// Two rounds over 100 nodes, so building the runners dominates: here
	// new arenas allocated about four times what pooled ones did.
	cfg := smallGridConfig()
	cfg.Nodes, cfg.Rounds = 100, 2
	cfg.Workers = 2
	allocated := func(sweep func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := sweep(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	stream := func() error { _, err := streamGrid(cfg); return err }
	fresh := allocated(func() error { _, err := materializeCells(cfg); return err })
	// The pool also holds the arenas that earlier tests in the package
	// put back, of other shapes and sizes, and a worker may take one of
	// those and grow it during the sweep. So the sweep runs once to warm
	// the arenas it takes, then three more times, and the least of those
	// three is the measure.
	if err := stream(); err != nil {
		t.Fatal(err)
	}
	pooled := allocated(stream)
	for i := 0; i < 2; i++ {
		pooled = min(pooled, allocated(stream))
	}
	t.Logf("grid sweep allocates %d bytes with new arenas, %d repeated on pooled ones", fresh, pooled)
	if 2*pooled >= fresh {
		t.Errorf("a repeated grid sweep allocated %d bytes, not under half of the %d a sweep with new arenas allocates", pooled, fresh)
	}
}
