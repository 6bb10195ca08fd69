package protocol

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// runReportsDigest runs rounds and summarises every observable of the
// reports plus the runner's cost counters; setup, when set, installs
// hooks on the runner before the first round.
func runReportsDigest(t *testing.T, cfg Config, rounds int, setup func(*Runner)) string {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(r)
	}
	out := ""
	for _, rep := range r.RunRounds(rounds) {
		out += fmt.Sprintf("%d:%d/%d/%d:%s:%v:%d;", rep.Round, rep.FinalCount,
			rep.TentativeCount, rep.NoneCount, rep.CanonicalHash, rep.Decided, rep.Desynced)
	}
	out += fmt.Sprintf("tip=%s fees=%v counts=%v", r.Canonical().Tip(), r.FeesCollected(), r.TaskCounts())
	return out
}

// arenaShape is one kind of run an arena may carry. cfg returns a new
// config on every call, so a traced shape never shares its recorder.
type arenaShape struct {
	name   string
	rounds int
	cfg    func() Config
	setup  func(*Runner)
}

// arenaShapes are the run shapes of TestArenaRunnersMatchFreshRunners:
// dense populations of 40 and 60 nodes at seeds 1–3, the sparse pin
// population untraced and with a trace panel, another fanout and loss
// rate, and a dense run whose nodes go offline mid-round.
func arenaShapes() map[string]arenaShape {
	dense := func(n int, seed int64) func() Config {
		return func() Config {
			stakes := make([]float64, n)
			behaviors := make([]Behavior, n)
			for i := range stakes {
				stakes[i] = float64(1 + i%50)
				behaviors[i] = Honest
				if i%9 == 0 {
					behaviors[i] = Selfish
				}
			}
			return Config{Params: DefaultParams(), Stakes: stakes, Behaviors: behaviors, Seed: seed}
		}
	}
	// sparse is pinnedRunner's population without its hooks.
	sparse := func(panel int) func() Config {
		return func() Config {
			const n = 300
			behaviors := behaviorsOf(n, Honest)
			for i := 0; i < n; i += 9 {
				behaviors[i] = Selfish
			}
			params := DefaultParams()
			params.TauStep, params.TauFinal, params.AsyncProb = 25, 35, 0.3
			cfg := Config{Params: params, Stakes: testStakes(n), Behaviors: behaviors, Fanout: 5, Seed: 97, Sparse: SparseOn}
			if panel > 0 {
				cfg.Trace = obs.NewTrace(panel)
			}
			return cfg
		}
	}
	// offline takes the first two nodes each step reveals offline until
	// the next round starts.
	offline := func(r *Runner) {
		var down []int
		r.SetHooks(Hooks{
			RoundStart: func(uint64) {
				for _, id := range down {
					r.Network().SetOnline(id, true)
				}
				down = down[:0]
			},
			StepDone: func(_, _ uint64, revealed []int) {
				for _, id := range revealed[:min(2, len(revealed))] {
					r.Network().SetOnline(id, false)
					down = append(down, id)
				}
			},
		})
	}
	shapes := map[string]arenaShape{}
	for _, n := range []int{40, 60} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("dense %d/%d", n, seed)
			shapes[name] = arenaShape{name: name, rounds: 4, cfg: dense(n, seed)}
		}
	}
	for _, sh := range []arenaShape{
		{name: "sparse 300", rounds: 3, cfg: sparse(0)},
		{name: "sparse 300 traced", rounds: 3, cfg: sparse(40)},
		{name: "fanout 8 loss 0.05", rounds: 4, cfg: func() Config {
			cfg := dense(60, 4)()
			cfg.Fanout, cfg.LossProb = 8, 0.05
			return cfg
		}},
		{name: "offline mid-round", rounds: 4, cfg: dense(60, 5), setup: offline},
	} {
		shapes[sh.name] = sh
	}
	return shapes
}

// digest runs one shape, through ar when it is non-nil, and adds the
// trace's events to the report digest of a traced shape.
func (sh arenaShape) digest(t *testing.T, ar *Arena) string {
	t.Helper()
	cfg := sh.cfg()
	cfg.Arena = ar
	out := runReportsDigest(t, cfg, sh.rounds, sh.setup)
	if cfg.Trace != nil {
		events := traceEvents(t, cfg.Trace)
		if len(events) == 0 {
			t.Fatalf("%s: empty trace", sh.name)
		}
		out += fmt.Sprintf(" trace=%v", events)
	}
	return out
}

// TestArenaRunnersMatchFreshRunners pins the arena's transparency
// contract: a Runner built from a warm arena — one that already carried
// runs of other shapes, with a populated sortition cache and dirty
// recycled node state — must produce bit-identical reports to a fresh
// build. Arenas outlive their sweep, so one arena alternates between
// dense and sparse runs, traced and untraced ones, other fanouts and loss
// rates, and runs whose hooks take nodes offline mid-round.
func TestArenaRunnersMatchFreshRunners(t *testing.T) {
	shapes := arenaShapes()
	fresh := map[string]string{}
	for name, sh := range shapes {
		fresh[name] = sh.digest(t, nil)
	}

	// One arena carries every run back to back: first the dense shapes
	// in reverse (maximally stale reuse, population sizes changing
	// mid-stream as in a grid sweep), then the round paths changing
	// between runs, then the first shapes again.
	ar := NewArena()
	for _, name := range []string{
		"dense 60/3", "dense 60/2", "dense 60/1", "dense 40/3", "dense 40/2", "dense 40/1",
		"sparse 300", "fanout 8 loss 0.05", "sparse 300 traced", "offline mid-round",
		"dense 60/3", "sparse 300", "dense 40/2", "sparse 300 traced", "dense 40/1",
	} {
		if got, want := shapes[name].digest(t, ar), fresh[name]; got != want {
			t.Fatalf("arena runner diverged from fresh runner on %s\narena: %s\nfresh: %s", name, got, want)
		}
	}
}

// TestReleasedArenaHoldsNoRun pins Arena.Release: once an arena that
// carried a run is released, nothing of that run stays reachable through
// it — neither the Runner (through the engine's handler and pending
// closures) nor its ledger (through pooled nodes) — and the next runner
// it builds still equals a fresh one.
func TestReleasedArenaHoldsNoRun(t *testing.T) {
	shapes := arenaShapes()
	ar := NewArena()
	for _, name := range []string{"dense 60/1", "sparse 300 traced", "offline mid-round"} {
		sh := shapes[name]
		// collected fires once for the runner's hooks, which only the
		// runner references, and once for its canonical ledger.
		collected := make(chan string, 2)
		func() {
			cfg := sh.cfg()
			cfg.Arena = ar
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sh.setup != nil {
				sh.setup(r)
			}
			type sentinel struct{ n [8]int64 }
			s := &sentinel{}
			runtime.SetFinalizer(s, func(*sentinel) { collected <- "runner" })
			roundStart := r.hooks.RoundStart
			r.hooks.RoundStart = func(round uint64) {
				s.n[0]++
				if roundStart != nil {
					roundStart(round)
				}
			}
			runtime.SetFinalizer(r.Canonical(), func(any) { collected <- "ledger" })
			for range r.RunRounds(2) {
			}
		}()
		ar.Release()
		for _, nd := range append(ar.nodes[:cap(ar.nodes)], sparseFree(ar)...) {
			if nd != nil && (nd.ledger != nil || nd.bestProposal != nil) {
				t.Fatalf("%s: a released arena's pooled node still holds its run's ledger or proposal", name)
			}
		}
		got := map[string]bool{}
		for tries := 0; len(got) < 2 && tries < 50; tries++ {
			runtime.GC()
			select {
			case what := <-collected:
				got[what] = true
			case <-time.After(20 * time.Millisecond):
			}
		}
		if !got["runner"] || !got["ledger"] {
			t.Fatalf("%s: a released arena still reaches its last run (collected: %v)", name, got)
		}
	}
	if got, want := shapes["dense 40/1"].digest(t, ar), shapes["dense 40/1"].digest(t, nil); got != want {
		t.Fatalf("released arena built a runner unlike a fresh one\narena: %s\nfresh: %s", got, want)
	}
}

// sparseFree is the sparse path's pool of node structs, if ar has one.
func sparseFree(ar *Arena) []*node {
	if ar.sparse == nil {
		return nil
	}
	return ar.sparse.free
}

// TestArenaBuffersReinitialised pins the helper-buffer contract: buffers
// come back sized and defaulted, regardless of what the previous run
// left in them.
func TestArenaBuffersReinitialised(t *testing.T) {
	ar := NewArena()
	b := ar.BehaviorBuf(8)
	for i := range b {
		b[i] = Faulty
	}
	if !reflect.DeepEqual(ar.BehaviorBuf(4), []Behavior{Honest, Honest, Honest, Honest}) {
		t.Fatal("BehaviorBuf not reset to Honest on reuse")
	}
}
