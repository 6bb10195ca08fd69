package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The differential tests drive the calendar queue and the legacy binary
// heap through identical randomized schedules and assert bit-identical
// pop order — the scheduler contract the golden figures rely on. Event
// mixes cover the regimes the protocol produces: dense near-future
// bursts, same-timestamp ties, far-future timers, horizon hints
// mid-run, and long idle jumps.

// diffOp replays a pre-generated schedule program: the randomness is
// drawn once and shared, so both engines see identical operations.
type diffOp struct {
	delay    time.Duration
	absolute bool
	fn       bool // use ScheduleFn instead of Schedule
	children []diffOp
	hint     time.Duration
}

func genOps(rng *rand.Rand, n, depth int, delays func() time.Duration) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{
			delay: delays(),
			fn:    rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			op.absolute = true
		}
		if rng.Intn(16) == 0 {
			op.hint = time.Duration(rng.Int63n(int64(20 * time.Second)))
		}
		if depth > 0 && rng.Intn(3) == 0 {
			op.children = genOps(rng, rng.Intn(4), depth-1, delays)
		}
		ops[i] = op
	}
	return ops
}

// schedule installs op on the engine, appending its unique id to log at
// execution time and scheduling its children from within the event.
func schedule(e *Engine, op *diffOp, id *int, log *[]int) {
	myID := *id
	*id++
	body := func() {
		*log = append(*log, myID)
		if op.hint > 0 {
			e.HintHorizon(op.hint)
		}
		for i := range op.children {
			schedule(e, &op.children[i], id, log)
		}
	}
	switch {
	case op.fn:
		e.ScheduleFn(op.delay, func(int, any) { body() }, 0, nil)
	case op.absolute:
		e.ScheduleAt(e.Now()+op.delay, body)
	default:
		e.Schedule(op.delay, body)
	}
}

// runProgram executes the same op program on a fresh engine and returns
// the execution order. ids are assigned in schedule order, which is
// identical across engines.
func runProgram(t *testing.T, ops []diffOp, legacy bool, until time.Duration) []int {
	t.Helper()
	e := NewEngine(1)
	if legacy {
		e.UseLegacyHeap()
	}
	var log []int
	id := 0
	for i := range ops {
		schedule(e, &ops[i], &id, &log)
	}
	if until > 0 {
		// Chunked runs exercise the peek path and clock jumps to `until`.
		for e.Pending() > 0 {
			if err := e.Run(e.Now() + until); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	return log
}

func diffCompare(t *testing.T, ops []diffOp, until time.Duration) {
	t.Helper()
	requireSameOrder(t, runProgram(t, ops, false, until), runProgram(t, ops, true, until))
}

// requireSameOrder fails unless the calendar and the legacy heap ran the
// same events in the same order.
func requireSameOrder(t *testing.T, cal, heap []int) {
	t.Helper()
	if len(cal) != len(heap) {
		t.Fatalf("calendar executed %d events, legacy heap %d", len(cal), len(heap))
	}
	for i := range cal {
		if cal[i] != heap[i] {
			t.Fatalf("pop order diverges at step %d: calendar ran event %d, legacy heap ran event %d", i, cal[i], heap[i])
		}
	}
}

// TestCalendarMatchesHeap cross-checks the calendar queue against the
// legacy heap over many randomized schedule programs and delay regimes.
func TestCalendarMatchesHeap(t *testing.T) {
	regimes := []struct {
		name   string
		delays func(rng *rand.Rand) func() time.Duration
	}{
		{"gossip", func(rng *rand.Rand) func() time.Duration {
			// Dense 20-200 ms hops with a heavy 8× tail, like the network.
			return func() time.Duration {
				d := 20*time.Millisecond + time.Duration(rng.Int63n(int64(180*time.Millisecond)))
				if rng.Intn(25) == 0 {
					d *= 8
				}
				return d
			}
		}},
		{"bursts", func(rng *rand.Rand) func() time.Duration {
			// Many events on few distinct timestamps: FIFO tie-breaking.
			ticks := []time.Duration{0, time.Millisecond, time.Millisecond, 5 * time.Millisecond, time.Second}
			return func() time.Duration { return ticks[rng.Intn(len(ticks))] }
		}},
		{"timers", func(rng *rand.Rand) func() time.Duration {
			// Sparse far-future events: overflow heap and idle jumps.
			return func() time.Duration { return time.Duration(rng.Int63n(int64(40 * time.Second))) }
		}},
		{"mixed", func(rng *rand.Rand) func() time.Duration {
			// Everything at once, including resize-boundary landings.
			return func() time.Duration {
				switch rng.Intn(4) {
				case 0:
					return time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
				case 1:
					return time.Duration(rng.Int63n(int64(13 * time.Second)))
				case 2:
					// Exact bucket/day boundaries for every plausible shift.
					return time.Duration(rng.Int63n(1<<10) << (10 + uint(rng.Intn(20))))
				default:
					return 0
				}
			}
		}},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				t.Run(fmt.Sprint(seed), func(t *testing.T) {
					rng := NewRNG(seed, "differential."+reg.name)
					ops := genOps(rng, 300, 3, reg.delays(rng))
					var until time.Duration
					if seed%2 == 1 {
						until = 700 * time.Millisecond // chunked Run exercises peeks
					}
					diffCompare(t, ops, until)
				})
			}
		})
	}
}

// TestCalendarMatchesHeapFactorSwings replays the weak-synchrony shape:
// dense gossip whose delays inflate 8× for a window mid-run, with
// matching HintHorizon calls, as the network layer issues them.
func TestCalendarMatchesHeapFactorSwings(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			build := func(legacy bool) []int {
				e := NewEngine(1)
				if legacy {
					e.UseLegacyHeap()
				}
				rng := NewRNG(seed, "differential.swings")
				var log []int
				id := 0
				factor := time.Duration(1)
				var spawn func(depth int)
				spawn = func(depth int) {
					myID := id
					id++
					delay := factor * time.Duration(20+rng.Int63n(200)) * time.Millisecond / 4
					e.ScheduleFn(delay, func(int, any) {
						log = append(log, myID)
						if depth > 0 {
							for i := 0; i < 3; i++ {
								spawn(depth - 1)
							}
						}
					}, 0, nil)
				}
				for round := 0; round < 6; round++ {
					if round == 2 {
						factor = 8
						e.HintHorizon(8 * 1600 * time.Millisecond)
					}
					if round == 4 {
						factor = 1
						e.HintHorizon(1600 * time.Millisecond)
					}
					// A round: a deadline timer far ahead plus gossip cascades.
					e.Schedule(13*time.Second, func() { log = append(log, -1) })
					for i := 0; i < 40; i++ {
						spawn(3)
					}
					if err := e.Run(0); err != nil {
						t.Fatal(err)
					}
				}
				return log
			}
			requireSameOrder(t, build(false), build(true))
		})
	}
}

// meanFieldDelays builds the sparse path's delay-table shape: 4096
// pre-sampled multi-hop path delays, each a sum of four 75–750 ms hops
// (0.3–3 s). Every delivery of a step draws one entry, so a step's
// deliveries share at most 4096 distinct offsets from its start.
func meanFieldDelays(rng *rand.Rand) []time.Duration {
	tab := make([]time.Duration, 4096)
	for i := range tab {
		for h := 0; h < 4; h++ {
			tab[i] += 75*time.Millisecond + time.Duration(rng.Int63n(int64(675*time.Millisecond)))
		}
	}
	return tab
}

// runMeanField replays the burst shape the sparse path scheduled before
// it batched deliveries per arrival instant, on one scheduler, and
// returns the execution order. Every step instant, each of V
// sources delivers to R receivers at a table delay — most land on far
// days, and the table's 4096 offsets make events share timestamps — and
// sends one short-delay direct insert; every receiver arms two step
// timers 1 µs apart, a same-instant direct burst that halves the near
// width down to its cap and leaves crowded buckets of interleaved
// timestamps to sort. A sixteenth of deliveries react with a
// short-delay follow-up. Timers pushed up front 40 s out wait in the
// overflow heap; more timers on their days follow each step, taking the
// far ring once the clock brings those days into the span, and a
// HintHorizon growth then re-homes the overflow while far days hold
// events of the same days. The clock advances in chunked Run(until)
// calls throughout.
func runMeanField(t *testing.T, seed int64, legacy bool) []int {
	t.Helper()
	const (
		steps, sources, receivers = 7, 32, 256
		stepGap                   = 1300 * time.Millisecond
		chunk                     = 170 * time.Millisecond
		hintStep                  = 6
	)
	e := NewEngine(1)
	if legacy {
		e.UseLegacyHeap()
	}
	rng := NewRNG(seed, "differential.meanfield")
	delays := meanFieldDelays(rng)
	var log []int
	id := 0
	var deliver func(arg int, _ any)
	deliver = func(arg int, _ any) {
		log = append(log, arg)
		if arg > 0 && arg%16 == 0 {
			e.ScheduleFn(time.Duration(rng.Int63n(int64(30*time.Millisecond))), deliver, -arg, nil)
		}
	}
	schedule := func(delay time.Duration) {
		id++
		e.ScheduleFn(delay, deliver, id, nil)
	}
	timer := func() {
		schedule(40*time.Second + time.Duration(rng.Int63n(int64(time.Second))) - e.Now())
	}
	for i := 0; i < 30; i++ {
		timer()
	}
	for step := 0; step < steps; step++ {
		if step == hintStep {
			e.HintHorizon(2 * time.Minute)
		}
		for i := 0; i < 5; i++ {
			timer()
		}
		for r := 0; r < receivers; r++ {
			schedule(20*time.Millisecond + time.Duration(r%2)*time.Microsecond)
		}
		for v := 0; v < sources; v++ {
			for r := 0; r < receivers; r++ {
				schedule(delays[rng.Intn(len(delays))])
			}
			schedule(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
		}
		if !e.legacy {
			checkFarChains(t, &e.cal)
		}
		next := e.Now() + stepGap
		for e.Now() < next {
			if err := e.Run(min(e.Now()+chunk, next)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for e.Pending() > 0 {
		if err := e.Run(e.Now() + chunk); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// TestCalendarMatchesHeapMeanField cross-checks the calendar queue
// against the legacy heap on the pre-batching mean-field burst shape.
func TestCalendarMatchesHeapMeanField(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			requireSameOrder(t, runMeanField(t, seed, false), runMeanField(t, seed, true))
		})
	}
}
