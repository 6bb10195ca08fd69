package protocol

import (
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// Arena is a construction pool that amortises Runner setup across
// runs. Building a Runner from scratch allocates the node table (each
// node carrying tally tables, an accepted-proposal list and a ledger
// view), the key table, the cost meter, the engine's calendar, the
// gossip topology and dedup tables, and a cold sortition cache; a sweep
// at -full scale pays that hundreds of times. An Arena recycles those
// structures between consecutive runs: pass it via Config.Arena. The
// experiment drivers keep arenas in one process-wide pool and hand one
// to each run-pool worker, so an arena outlives the sweep that grew it
// and carries runs of any shape in turn — dense and sparse, traced or
// not, at any population size, fanout or loss rate.
//
// The arena is semantically transparent — results are bit-for-bit
// identical with and without one, whatever runs it carried before,
// which the golden figure tests, the cross-worker determinism tests and
// TestArenaRunnersMatchFreshRunners pin. Two rules make that hold:
//
//   - Recycled memory is fully re-initialised before reuse (takeNodes
//     resets every node, counters are zeroed, behaviour buffers are
//     overwritten by the caller).
//   - The shared sortition cache is a pure memoisation keyed on
//     (stake, probability): carrying entries across runs changes no
//     Select/Verify outcome, only their cost.
//
// An Arena is owned by one goroutine at a time: a Runner built from it
// borrows its storage, so the arena must not be handed to a second
// Runner until the first is done. A sweep gives each worker an arena of
// its own and puts the arenas back only after every worker has exited,
// which satisfies both.
type Arena struct {
	cache     *sortition.Cache
	nodes     []*node
	keys      []vrf.KeyPair
	roleTaken []bool
	meter     *costMeter
	behaviors []Behavior
	// stakes is the caller-facing population scratch; see StakeBuf.
	stakes []float64
	// engine is the recycled simulation engine: the first run through the
	// arena stashes its engine here, later runs rewind it with
	// sim.Engine.Reset instead of re-allocating the calendar queue from
	// scratch. Reset keeps the pooled event storage (near rings, spare
	// bucket backings, far blocks) and pops in the same strict (time,
	// seq) order, so recycling is output-invisible.
	engine *sim.Engine
	// net recycles the gossip layer's topology slab and node tables; see
	// network.Arena.
	net network.Arena
	// nilNodes is the sparse-mode node table: a length-n all-nil slice that
	// beginRoundSparse links materialized nodes into. It is distinct from
	// nodes so a worker alternating dense and sparse runs keeps both pools.
	nilNodes []*node
	// behaviorTab is the runner-owned behaviour table (Runner.behaviors);
	// distinct from behaviors, the caller-facing BehaviorBuf scratch.
	behaviorTab []Behavior
	// sparse recycles the sparse-committee path's pooled node structs,
	// committee maps and scratch buffers; see sparseState.adopt.
	sparse *sparseState
}

// NewArena returns an empty arena; pools grow on first use.
func NewArena() *Arena {
	return &Arena{cache: sortition.NewCache()}
}

// takeNodes returns n recycled node structs, fully reset except for
// their retained containers (tally tables, accepted-proposal list),
// which the per-round reset machinery clears before first use.
func (a *Arena) takeNodes(n int) []*node {
	if cap(a.nodes) < n {
		grown := make([]*node, n)
		copy(grown, a.nodes[:cap(a.nodes)])
		a.nodes = grown
	}
	a.nodes = a.nodes[:n]
	for i, nd := range a.nodes {
		if nd == nil {
			a.nodes[i] = &node{}
			continue
		}
		nd.recycle()
	}
	return a.nodes
}

// Release drops every reference the arena still holds into the last run
// it backed — the engine's delivery handler and pending closures, the
// recycled nodes' ledger views and proposals, the sparse path's run
// state and the network's message table — and keeps every buffer. An
// arena waiting in a pool then holds its pools alone, not the last
// run's Runner, ledger, hooks and trace. NewRunner re-initialises all of
// it anyway, so a released arena builds the same runners as one that
// was not released.
func (a *Arena) Release() {
	if a.engine != nil {
		a.engine.Reset(0)
	}
	for _, nd := range a.nodes[:cap(a.nodes)] {
		if nd != nil {
			nd.recycle()
		}
	}
	clear(a.nilNodes[:cap(a.nilNodes)])
	if a.sparse != nil {
		a.sparse.release()
	}
	a.net.Release()
}

// takeNodesNil returns an all-nil node table of length n for the sparse
// path, where only the round's materialized nodes are linked in.
func (a *Arena) takeNodesNil(n int) []*node {
	if cap(a.nilNodes) < n {
		a.nilNodes = make([]*node, n)
	}
	a.nilNodes = a.nilNodes[:n]
	clear(a.nilNodes)
	return a.nilNodes
}

// takeBehaviors returns a cleared behaviour table of length n; NewRunner
// copies Config.Behaviors into it.
func (a *Arena) takeBehaviors(n int) []Behavior {
	if cap(a.behaviorTab) < n {
		a.behaviorTab = make([]Behavior, n)
	}
	a.behaviorTab = a.behaviorTab[:n]
	clear(a.behaviorTab)
	return a.behaviorTab
}

// takeKeys returns a zeroed key table of length n.
func (a *Arena) takeKeys(n int) []vrf.KeyPair {
	if cap(a.keys) < n {
		a.keys = make([]vrf.KeyPair, n)
	}
	a.keys = a.keys[:n]
	clear(a.keys)
	return a.keys
}

// takeRoleTaken returns a cleared role-scratch table of length n.
func (a *Arena) takeRoleTaken(n int) []bool {
	if cap(a.roleTaken) < n {
		a.roleTaken = make([]bool, n)
	}
	a.roleTaken = a.roleTaken[:n]
	clear(a.roleTaken)
	return a.roleTaken
}

// takeMeter returns a zeroed cost meter for n nodes.
func (a *Arena) takeMeter(n int) *costMeter {
	if a.meter == nil || cap(a.meter.counts) < n {
		a.meter = &costMeter{counts: make([]TaskCounts, n)}
		return a.meter
	}
	a.meter.counts = a.meter.counts[:n]
	clear(a.meter.counts)
	return a.meter
}

// StakeBuf returns a length-n float64 buffer owned by the arena, for
// sampling stake populations into (stake.SamplePopulationInto) instead
// of allocating a fresh vector per run. NewRunner never retains
// Config.Stakes — Genesis copies the values into ledger accounts — so
// the buffer is free again once the runner is built; with one owner at a
// time and its runs strictly sequential, handing the same buffer to
// every run is safe.
func (a *Arena) StakeBuf(n int) []float64 {
	if cap(a.stakes) < n {
		a.stakes = make([]float64, n)
	}
	return a.stakes[:n]
}

// BehaviorBuf returns a length-n behaviour buffer owned by the arena,
// initialised to Honest. Experiment drivers fill it and pass it as
// Config.Behaviors; NewRunner copies the values out, so the buffer is
// free for the worker's next run.
func (a *Arena) BehaviorBuf(n int) []Behavior {
	if cap(a.behaviors) < n {
		a.behaviors = make([]Behavior, n)
	}
	a.behaviors = a.behaviors[:n]
	for i := range a.behaviors {
		a.behaviors[i] = Honest
	}
	return a.behaviors
}
