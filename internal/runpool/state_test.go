package runpool

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// workerArena is a toy worker state: a recycled buffer plus an identity,
// mirroring how experiment drivers use protocol arenas.
type workerArena struct {
	worker int
	buf    []float64
}

func TestSweepWithStateOnePerWorker(t *testing.T) {
	var created atomic.Int64
	var mu sync.Mutex
	seen := map[*workerArena]int{}
	_, err := SweepWithState(64, 4,
		func(worker int) *workerArena {
			created.Add(1)
			return &workerArena{worker: worker}
		},
		func(run int, a *workerArena) (int, error) {
			mu.Lock()
			seen[a]++
			mu.Unlock()
			return run, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := created.Load(); got != 4 {
		t.Errorf("newState invoked %d times, want once per worker (4)", got)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	// Run claiming is dynamic, so a fast worker may consume most runs;
	// what is guaranteed is that every call got some worker's state and
	// no more than one state per worker exists.
	if len(seen) < 1 || len(seen) > 4 || total != 64 {
		t.Errorf("runs used %d distinct states over %d calls, want 1..4 states over 64 calls", len(seen), total)
	}
}

func TestSweepWithStateSerialPath(t *testing.T) {
	var created int
	results, err := SweepWithState(5, 1,
		func(worker int) *workerArena {
			created++
			return &workerArena{worker: worker, buf: make([]float64, 1)}
		},
		func(run int, a *workerArena) (float64, error) {
			// The recycled buffer is fully overwritten each run, so reuse
			// cannot change results.
			a.buf[0] = float64(run * run)
			return a.buf[0], nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if created != 1 {
		t.Errorf("serial path created %d states, want 1", created)
	}
	if !reflect.DeepEqual(results, []float64{0, 1, 4, 9, 16}) {
		t.Errorf("results = %v", results)
	}
}

func TestSweepWithStateNilStateFactory(t *testing.T) {
	results, err := SweepWithState[int, struct{}](3, 2, nil,
		func(run int, _ struct{}) (int, error) { return run + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, []int{1, 2, 3}) {
		t.Errorf("results = %v", results)
	}
}
