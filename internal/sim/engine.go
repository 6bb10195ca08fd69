// Package sim is a deterministic discrete-event simulation engine. It is
// the substrate under the Algorand protocol simulator: a virtual clock, a
// time-ordered event queue with stable FIFO tie-breaking, and labelled
// deterministic random streams so that every experiment is reproducible
// from a single seed.
package sim

import (
	"hash/fnv"
	"math/rand"
	"time"
)

// Action is a unit of simulated work executed at its scheduled virtual time.
type Action func()

// event is one pending unit of work: 24 bytes and no pointers, so the
// calendar queue moves plain integers and the garbage collector never
// scans, write-barriers or clears queue memory. ref tells the two event
// kinds apart: a closure scheduled with Schedule/ScheduleAt sits in the
// engine's slot table and the event stores ^slot (negative); a delivery
// scheduled with ScheduleFn stores the caller's ref (>= 0) and runs the
// engine's one handler with (arg, ref). Events are stored by value in the
// queue's slices, so steady-state scheduling reuses the queue's capacity
// instead of boxing a heap node per event.
type event struct {
	at  time.Duration
	seq uint64
	arg int32
	ref int32
}

// before reports whether e precedes other in the engine's total event
// order: earlier time first, then lower sequence number (FIFO among
// same-time events). The scheduler must pop in exactly this order — the
// golden figure outputs pin it.
func (e *event) before(other *event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.seq < other.seq
}

// eventQueue is a binary min-heap ordered by (at, seq); seq breaks ties
// FIFO so scheduling order is deterministic. The heap is hand-rolled over
// a value slice: container/heap would force a per-event allocation and
// dispatch every comparison through an interface. It serves as the
// calendar queue's far-future overflow heap.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		smallest := i
		if l := 2*i + 1; l < n && q.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

func (q *eventQueue) pop() event {
	h := *q
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	(*q).siftDown(0)
	return ev
}

// Engine owns the virtual clock and the pending event set. It is not safe
// for concurrent use: simulated concurrency is expressed through event
// ordering, not goroutines, which keeps runs bit-for-bit reproducible.
//
// Events are scheduled through a calendar queue (see calendarQueue) whose
// ring span tracks the gossip delay horizon. It pops in strict
// (time, seq) order; the differential tests check that against a
// reference heap.
type Engine struct {
	now   time.Duration
	seq   uint64
	cal   calendarQueue
	seed  int64
	steps uint64
	// elided is the latest time of an event the caller elided instead of
	// scheduling (see Elide); a drain ends with the clock there.
	elided time.Duration
	// actions holds the pending closures, one slot each; an event refers
	// to its closure by slot. free lists the vacant slots, reused last in
	// first out, so the table never outgrows the peak number of pending
	// closures.
	actions []Action
	free    []int32
	// handler runs every ScheduleFn event (see SetHandler).
	handler func(arg, ref int32)
}

// NewEngine creates an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.cal.init()
	return e
}

// Reset rewinds the engine to a fresh post-NewEngine state for seed,
// keeping the scheduler's allocations: the calendar's near ring goes
// back to its initial width and keeps the finer rings it grew for reuse,
// the far ring keeps the span previous runs grew it to, near-bucket
// backings return to its spare lists, and far blocks to its freelist.
// Pop order is strict (at, seq) independent of geometry, so a recycled
// engine is output-identical to NewEngine(seed) while skipping the
// calendar's warm-up allocations — the run-pool arenas lean on that. Any still-queued events are dropped, with their closures, and
// the delivery handler is uninstalled.
func (e *Engine) Reset(seed int64) {
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.seed = seed
	e.elided = 0
	e.cal.reset()
	clear(e.actions)
	e.actions = e.actions[:0]
	e.free = e.free[:0]
	e.handler = nil
}

// HintHorizon tells the scheduler that hot-path events arrive at most
// horizon ahead of the clock, sizing the calendar ring so they all take
// the O(1) bucket route. The hint is a pure optimisation: events beyond
// it stay correct via the overflow heap, and the span also adapts
// automatically when the overflow population grows. The network layer
// hints its maximum hop delay (times the current delay factor) on
// construction and on every SetDelayFactor call.
func (e *Engine) HintHorizon(horizon time.Duration) {
	e.cal.hintHorizon(horizon)
}

// SchedStats is a snapshot of the engine's scheduling counters, for
// telemetry. All fields count since construction or the last Reset;
// consumers flush deltas between snapshots, so the mixed reset
// semantics of recycled engines never produce negative rates as long
// as the baseline is re-taken after each Reset (protocol runners take
// theirs at construction, which follows the arena's Reset).
type SchedStats struct {
	// Scheduled counts events pushed; Executed counts events popped and
	// run.
	Scheduled uint64
	Executed  uint64
	// Near/Far/Overflow split pushes by calendar route; Migrated counts
	// far-ring events rehomed into the near ring.
	Near     uint64
	Far      uint64
	Overflow uint64
	Migrated uint64
}

// SchedStats returns the current scheduling counters. Reading them has
// no effect on scheduling.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		Scheduled: e.seq,
		Executed:  e.steps,
		Near:      e.cal.statNear,
		Far:       e.cal.statFar,
		Overflow:  e.cal.statOverflow,
		Migrated:  e.cal.statMigrated,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int {
	return e.cal.len()
}

// Schedule enqueues action to run delay after the current virtual time.
// Negative delays are treated as zero (run "now", after already-queued
// events at the same timestamp).
func (e *Engine) Schedule(delay time.Duration, action Action) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, action)
}

// ScheduleAt enqueues action at the absolute virtual time at. Times in the
// past are clamped to the current time.
func (e *Engine) ScheduleAt(at time.Duration, action Action) {
	if action == nil {
		return
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.actions[slot] = action
	} else {
		slot = int32(len(e.actions))
		e.actions = append(e.actions, action)
	}
	e.pushEvent(event{at: at, ref: ^slot})
}

// SetHandler installs the function every ScheduleFn event runs. An
// engine has one handler — the network that gossips over it — and Reset
// uninstalls it.
func (e *Engine) SetHandler(fn func(arg, ref int32)) {
	e.handler = fn
}

// ScheduleFn enqueues a call of the engine's handler with (arg, ref) to
// run delay after the current virtual time. It is the allocation-free
// counterpart of Schedule for hot paths: the event carries two integers
// instead of a closure. ref must be non-negative. Ordering semantics are
// identical to Schedule.
func (e *Engine) ScheduleFn(delay time.Duration, arg, ref int32) {
	if ref < 0 {
		panic("sim: ScheduleFn with a negative ref")
	}
	if delay < 0 {
		delay = 0
	}
	e.pushEvent(event{at: e.now + delay, arg: arg, ref: ref})
}

func (e *Engine) pushEvent(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.cal.push(ev, e.now)
}

// Elide accounts for an event delay from now that the caller does not
// schedule: because running it would change nothing (the network's dead
// pushes), or because the caller runs it itself, outside the scheduler
// (the sparse protocol path's logged deliveries). A drain (Run with no
// deadline) still ends with the clock at that event's time, as if it had
// been scheduled and popped, so eliding never moves virtual time.
// Elided events are not pending and count as neither scheduled nor
// executed.
func (e *Engine) Elide(delay time.Duration) {
	if at := e.now + delay; at > e.elided {
		e.elided = at
	}
}

// peekAt returns the timestamp of the earliest pending event.
func (e *Engine) peekAt() (time.Duration, bool) {
	ev := e.cal.peek(e.now)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev, ok := e.cal.pop(e.now)
	if !ok {
		return false
	}
	e.now = ev.at
	e.steps++
	if ev.ref >= 0 {
		e.handler(ev.arg, ev.ref)
		return true
	}
	// Free the slot before the action runs, so whatever the action
	// schedules can reuse it.
	slot := ^ev.ref
	action := e.actions[slot]
	e.actions[slot] = nil
	e.free = append(e.free, slot)
	action()
	return true
}

// Run executes events until the queue drains or until the clock passes
// until (exclusive). A zero until means "no time limit". With a positive
// until, the clock ends at until even if the queue drained before
// reaching it; without one, it ends at the last executed (or elided)
// event.
func (e *Engine) Run(until time.Duration) {
	if until <= 0 {
		// No deadline: drain without peeking ahead of every step.
		for e.Step() {
		}
		if e.now < e.elided {
			e.now = e.elided
		}
		return
	}
	for {
		at, ok := e.peekAt()
		if !ok {
			break
		}
		if at >= until {
			e.now = until
			return
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RNG returns a deterministic random stream for the given label. Streams
// with distinct labels are statistically independent; the same
// (seed, label) pair always yields the same stream, so adding a new
// consumer never perturbs existing ones.
func (e *Engine) RNG(label string) *rand.Rand {
	return NewRNG(e.seed, label)
}

// NewRNG builds the deterministic stream for (seed, label) without an
// engine, for components that only need randomness.
func NewRNG(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	mixed := seed ^ int64(h.Sum64())
	// splitmix64 finalizer decorrelates adjacent seeds.
	z := uint64(mixed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}
