package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The differential tests drive the calendar queue through randomized
// schedules while a reference model mirrors every push, and assert that
// each executed event is the model's (at, seq) minimum — the scheduler
// contract the golden figures rely on. Event mixes cover the regimes the
// protocol produces: dense near-future bursts, same-timestamp ties,
// far-future timers, horizon hints mid-run, and long idle jumps.

// refEvent is the model's copy of one pending event.
type refEvent struct {
	at  time.Duration
	seq uint64
}

// refHeap is a container/heap min-heap over (at, seq), deliberately
// independent of the engine's own eventQueue.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// refEngine wraps an Engine with the reference model. Its Schedule,
// ScheduleAt and ScheduleFn apply the engine's clamping to the model's
// copy, number pushes as the engine does, and wrap the event so that on
// execution it checks it is the model's minimum at the engine's clock.
// order logs executed events by push number. The refEngine installs
// itself as the engine's handler.
type refEngine struct {
	*Engine
	t     *testing.T
	ref   refHeap
	seq   uint64
	order []uint64
	calls []refCall
}

func newRefEngine(t *testing.T, e *Engine) *refEngine {
	r := &refEngine{Engine: e, t: t}
	e.SetHandler(r.callFn)
	return r
}

func (r *refEngine) push(at time.Duration) uint64 {
	r.seq++
	heap.Push(&r.ref, refEvent{at: max(at, r.Now()), seq: r.seq})
	return r.seq
}

// ran checks the event numbered seq is the model's next event.
func (r *refEngine) ran(seq uint64) {
	r.t.Helper()
	if r.ref.Len() == 0 {
		r.t.Fatalf("step %d: engine ran event %d, model is empty", len(r.order), seq)
	}
	want := heap.Pop(&r.ref).(refEvent)
	if want.seq != seq || want.at != r.Now() {
		r.t.Fatalf("step %d: engine ran event %d at %v, model's minimum is event %d at %v",
			len(r.order), seq, r.Now(), want.seq, want.at)
	}
	r.order = append(r.order, seq)
}

func (r *refEngine) Schedule(delay time.Duration, action Action) {
	seq := r.push(r.Now() + max(delay, 0))
	r.Engine.Schedule(delay, func() { r.ran(seq); action() })
}

func (r *refEngine) ScheduleAt(at time.Duration, action Action) {
	seq := r.push(at)
	r.Engine.ScheduleAt(at, func() { r.ran(seq); action() })
}

// refCall is one ScheduleFn event's model number, its caller's arg and
// ref, and the target they go to. The engine event carries the caller's
// arg and the call's index in calls as its ref, so it stays on the
// ScheduleFn path while the caller's ref passes through the table.
type refCall struct {
	seq      uint64
	arg, ref int32
	fn       func(arg, ref int32)
}

func (r *refEngine) callFn(arg, i int32) {
	r.t.Helper()
	c := r.calls[i]
	if arg != c.arg {
		r.t.Fatalf("event %d ran with arg %d, scheduled with %d", c.seq, arg, c.arg)
	}
	r.ran(c.seq)
	c.fn(c.arg, c.ref)
}

func (r *refEngine) ScheduleFn(delay time.Duration, fn func(arg, ref int32), arg, ref int32) {
	seq := r.push(r.Now() + max(delay, 0))
	r.calls = append(r.calls, refCall{seq: seq, arg: arg, ref: ref, fn: fn})
	r.Engine.ScheduleFn(delay, arg, int32(len(r.calls)-1))
}

// Run runs the engine and checks where it stopped: with a deadline, the
// clock sits at until and nothing earlier is left; without one, both the
// engine and the model are empty.
func (r *refEngine) Run(until time.Duration) {
	r.t.Helper()
	r.Engine.Run(until)
	if r.Pending() != r.ref.Len() {
		r.t.Fatalf("engine holds %d events, model %d", r.Pending(), r.ref.Len())
	}
	if until <= 0 {
		if r.ref.Len() != 0 {
			r.t.Fatalf("drain left %d events in the model", r.ref.Len())
		}
		return
	}
	if r.Now() != until {
		r.t.Fatalf("Run(%v) left the clock at %v", until, r.Now())
	}
	if r.ref.Len() > 0 && r.ref[0].at < until {
		r.t.Fatalf("Run(%v) returned with event %d due at %v", until, r.ref[0].seq, r.ref[0].at)
	}
}

// diffOp replays a pre-generated schedule program: the randomness is
// drawn once, before the engine runs.
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

// schedule installs op on the engine, scheduling its children from
// within the event.
func schedule(e *refEngine, op *diffOp) {
	body := func() {
		if op.hint > 0 {
			e.HintHorizon(op.hint)
		}
		for i := range op.children {
			schedule(e, &op.children[i])
		}
	}
	switch {
	case op.fn:
		e.ScheduleFn(op.delay, func(int32, int32) { body() }, 0, 0)
	case op.absolute:
		e.ScheduleAt(e.Now()+op.delay, body)
	default:
		e.Schedule(op.delay, body)
	}
}

// runProgram executes an op program on a fresh engine under the
// reference model and returns the execution order.
func runProgram(t *testing.T, ops []diffOp, until time.Duration) []uint64 {
	t.Helper()
	e := newRefEngine(t, NewEngine(1))
	for i := range ops {
		schedule(e, &ops[i])
	}
	if until > 0 {
		// Chunked runs exercise the peek path and clock jumps to `until`.
		for e.Pending() > 0 {
			e.Run(e.Now() + until)
		}
	}
	e.Run(0)
	return e.order
}

// TestCalendarMatchesHeap cross-checks the calendar queue against the
// reference heap over many randomized schedule programs and delay
// regimes.
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
					runProgram(t, ops, until)
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
			e := newRefEngine(t, NewEngine(1))
			rng := NewRNG(seed, "differential.swings")
			factor := time.Duration(1)
			var spawn func(depth int)
			spawn = func(depth int) {
				delay := factor * time.Duration(20+rng.Int63n(200)) * time.Millisecond / 4
				e.ScheduleFn(delay, func(int32, int32) {
					if depth > 0 {
						for i := 0; i < 3; i++ {
							spawn(depth - 1)
						}
					}
				}, 0, 0)
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
				e.Schedule(13*time.Second, func() {})
				for i := 0; i < 40; i++ {
					spawn(3)
				}
				e.Run(0)
			}
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

// runMeanField replays the burst shape the sparse path scheduled when
// each of its deliveries was one event under the reference model, and
// checks each delivery receives its own arg. Every step instant, each of V
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
func runMeanField(t *testing.T, seed int64) {
	t.Helper()
	const (
		steps, sources, receivers = 7, 32, 256
		stepGap                   = 1300 * time.Millisecond
		chunk                     = 170 * time.Millisecond
		hintStep                  = 6
	)
	e := newRefEngine(t, NewEngine(1))
	rng := NewRNG(seed, "differential.meanfield")
	delays := meanFieldDelays(rng)
	id := int32(0)
	var deliver func(arg, ref int32)
	deliver = func(arg, ref int32) {
		if ref != arg {
			t.Fatalf("delivery %d received arg %d", ref, arg)
		}
		if arg > 0 && arg%16 == 0 {
			e.ScheduleFn(time.Duration(rng.Int63n(int64(30*time.Millisecond))), deliver, -arg, -arg)
		}
	}
	schedule := func(delay time.Duration) {
		id++
		e.ScheduleFn(delay, deliver, id, id)
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
		checkFarChains(t, &e.cal)
		next := e.Now() + stepGap
		for e.Now() < next {
			e.Run(min(e.Now()+chunk, next))
		}
	}
	for e.Pending() > 0 {
		e.Run(e.Now() + chunk)
	}
	e.Run(0)
}

// TestCalendarMatchesHeapMeanField cross-checks the calendar queue
// against the reference heap on the one-event-per-delivery mean-field
// burst shape.
func TestCalendarMatchesHeapMeanField(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			runMeanField(t, seed)
		})
	}
}
