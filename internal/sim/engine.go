// Package sim is a deterministic discrete-event simulation engine. It is
// the substrate under the Algorand protocol simulator: a virtual clock, a
// time-ordered event queue with stable FIFO tie-breaking, and labelled
// deterministic random streams so that every experiment is reproducible
// from a single seed.
package sim

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when execution was halted via Stop.
var ErrStopped = errors.New("sim: engine stopped")

// Action is a unit of simulated work executed at its scheduled virtual time.
type Action func()

// event is one pending unit of work. Exactly one of action or fn is set:
// action is the general closure form, fn+arg+payload is the pre-bound form
// used by hot paths (gossip delivery) to avoid a closure allocation per
// event. Events are stored by value in the queue slice, so steady-state
// scheduling reuses the queue's capacity instead of boxing a heap node
// per event.
type event struct {
	at      time.Duration
	seq     uint64
	action  Action
	fn      func(arg int, payload any)
	arg     int
	payload any
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
	h[n] = event{} // drop closure/payload references
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
	now     time.Duration
	seq     uint64
	cal     calendarQueue
	stopped bool
	seed    int64
	steps   uint64
	// elided is the latest time of an event the caller elided instead of
	// scheduling (see Elide); a drain ends with the clock there.
	elided time.Duration
}

// NewEngine creates an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.cal.init()
	return e
}

// Reset rewinds the engine to a fresh post-NewEngine state for seed,
// keeping the scheduler's allocations and geometry: the calendar's
// near/far rings stay at whatever widths and spans previous runs grew
// them to, near-bucket backings return to its spare lists, and far
// blocks to its freelist. Pop order is strict (at, seq) independent of
// geometry, so a recycled engine is output-identical to NewEngine(seed)
// while skipping the calendar warm-up — the run-pool arenas lean on
// that. Any still-queued events are dropped.
func (e *Engine) Reset(seed int64) {
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.stopped = false
	e.seed = seed
	e.elided = 0
	e.cal.reset()
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
	e.pushEvent(event{at: at, action: action})
}

// ScheduleFn enqueues the pre-bound call fn(arg, payload) to run delay
// after the current virtual time. It is the allocation-free counterpart
// of Schedule for hot paths: fn is typically a callback stored once at
// construction, so no closure is captured per event. Ordering semantics
// are identical to Schedule.
func (e *Engine) ScheduleFn(delay time.Duration, fn func(arg int, payload any), arg int, payload any) {
	if fn == nil {
		return
	}
	if delay < 0 {
		delay = 0
	}
	e.pushEvent(event{at: e.now + delay, fn: fn, arg: arg, payload: payload})
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
	if ev.action != nil {
		ev.action()
	} else {
		ev.fn(ev.arg, ev.payload)
	}
	return true
}

// Run executes events until the queue drains, until the clock passes
// until (exclusive), or until Stop is called. A zero until means "no time
// limit". It returns ErrStopped when halted via Stop, nil otherwise.
// Whenever Run returns nil with a positive until, the clock has advanced
// to until even if the queue drained before reaching it.
func (e *Engine) Run(until time.Duration) error {
	e.stopped = false
	if until <= 0 {
		// No deadline: drain without peeking ahead of every step. Stop
		// semantics match the deadline path — ErrStopped only when events
		// remain after the stopping event.
		for {
			if !e.Step() {
				if e.now < e.elided {
					e.now = e.elided
				}
				return nil
			}
			if e.stopped {
				if e.Pending() > 0 {
					return ErrStopped
				}
				return nil
			}
		}
	}
	for {
		at, ok := e.peekAt()
		if !ok {
			break
		}
		if e.stopped {
			return ErrStopped
		}
		if at >= until {
			e.now = until
			return nil
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return nil
}

// Stop halts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Every schedules action at fixed intervals starting one interval from
// now, until the predicate keepGoing returns false (checked before each
// execution) or the engine drains. It returns immediately; the chain of
// events lives on the engine's queue.
func (e *Engine) Every(interval time.Duration, keepGoing func() bool, action Action) {
	if interval <= 0 || action == nil || keepGoing == nil {
		return
	}
	var tick Action
	tick = func() {
		if !keepGoing() {
			return
		}
		action()
		e.Schedule(interval, tick)
	}
	e.Schedule(interval, tick)
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
