package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []time.Duration
	e.Schedule(time.Second, func() {
		hits = append(hits, e.Now())
		e.Schedule(time.Second, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(0)
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 2*time.Second {
		t.Errorf("hits = %v", hits)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	e.Run(2 * time.Second)
	if ran != 1 {
		t.Errorf("ran %d events before the deadline, want 1", ran)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesClockOnDrain(t *testing.T) {
	// The queue drains at 1s, well before the 5s deadline; the clock must
	// still pass until, as the doc promises.
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v after drain, want 5s", e.Now())
	}
	// An already-empty queue behaves the same.
	e.Run(7 * time.Second)
	if e.Now() != 7*time.Second {
		t.Errorf("Now = %v on empty queue, want 7s", e.Now())
	}
	// A zero until still means "no time limit": the clock stays at the
	// last event's timestamp.
	e2 := NewEngine(1)
	e2.Schedule(time.Second, func() {})
	e2.Run(0)
	if e2.Now() != time.Second {
		t.Errorf("Now = %v with no limit, want 1s", e2.Now())
	}
}

func TestElideMovesDrainClock(t *testing.T) {
	// An elided event at 3s outlasts the last real one at 1s: a drain
	// ends at 3s, as if the elided event had been scheduled and popped.
	e := NewEngine(1)
	e.Schedule(time.Second, func() { e.Elide(2 * time.Second) })
	e.Elide(500 * time.Millisecond) // earlier than the last event: no effect
	e.Run(0)
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v after drain, want 3s", e.Now())
	}
	if s := e.SchedStats(); s.Scheduled != 1 || s.Executed != 1 || e.Pending() != 0 {
		t.Errorf("elided event was counted: %+v, pending %d", s, e.Pending())
	}
	// A deadline before the elided time stops the clock at the deadline;
	// the next drain then reaches the elided time.
	e.Elide(4 * time.Second) // at 7s
	e.Run(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v at deadline, want 5s", e.Now())
	}
	e.Run(0)
	if e.Now() != 7*time.Second {
		t.Errorf("Now = %v after second drain, want 7s", e.Now())
	}
	// Reset forgets elided events.
	e.Elide(time.Second)
	e.Reset(1)
	e.Run(0)
	if e.Now() != 0 {
		t.Errorf("Now = %v after Reset and drain, want 0", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	e.Run(0)
	if !ran || e.Now() != 0 {
		t.Errorf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() { at = e.Now() })
	})
	e.Run(0)
	if at != time.Second {
		t.Errorf("past event executed at %v, want 1s", at)
	}
}

func TestNilActionIgnored(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, nil)
	if e.Pending() != 0 {
		t.Error("nil action was enqueued")
	}
}

func TestStepCounting(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run(0)
	if got := e.SchedStats().Executed; got != 5 {
		t.Errorf("Executed = %d, want 5", got)
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7, "stream")
	b := NewRNG(7, "stream")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,label) produced different streams")
		}
	}
}

func TestRNGLabelIndependence(t *testing.T) {
	a := NewRNG(7, "alpha")
	b := NewRNG(7, "beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct labels collided %d/64 times", same)
	}
}

func TestEngineRNGMatchesNewRNG(t *testing.T) {
	e := NewEngine(99)
	a := e.RNG("x")
	b := NewRNG(99, "x")
	if a.Uint64() != b.Uint64() {
		t.Error("Engine.RNG disagrees with NewRNG")
	}
}

// ScheduleFn must interleave with Schedule in strict (time, seq) order —
// the no-closure fast path cannot be allowed to perturb event ordering.
func TestScheduleFnOrdersWithSchedule(t *testing.T) {
	e := NewEngine(1)
	var got []int32
	e.SetHandler(func(arg, _ int32) { got = append(got, arg) })
	e.ScheduleFn(20*time.Millisecond, 3, 0)
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.ScheduleFn(10*time.Millisecond, 2, 0) // same time: FIFO after the closure
	e.Schedule(30*time.Millisecond, func() { got = append(got, 4) })
	e.ScheduleFn(-5*time.Millisecond, 0, 0) // negative delay clamps to now
	e.Run(0)
	want := []int32{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// ScheduleFn passes its arg and ref through untouched, including the
// extremes of both.
func TestScheduleFnPayload(t *testing.T) {
	e := NewEngine(1)
	type call struct{ arg, ref int32 }
	var seen []call
	e.SetHandler(func(arg, ref int32) { seen = append(seen, call{arg, ref}) })
	want := []call{{7, 42}, {math.MinInt32, 0}, {math.MaxInt32, math.MaxInt32}, {-1, 1}}
	for _, c := range want {
		e.ScheduleFn(0, c.arg, c.ref)
	}
	e.Run(0)
	if !slices.Equal(seen, want) {
		t.Fatalf("handler saw %v, want %v", seen, want)
	}
}

// TestEventLayout guards the scheduler's event: 24 bytes with no
// pointer-bearing field, so queue memory is never scanned by the garbage
// collector. Anything added to event must keep both.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 24 {
		t.Fatalf("event is %d bytes, want 24", n)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
		default:
			t.Fatalf("event field %s has kind %v, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}

// TestClosureSlotsRecycled pins the closure slot table: warm cycles of
// timers — some scheduling a follow-up from inside their action — reuse
// the slots earlier cycles freed, so the table never grows beyond the
// peak number of pending closures.
func TestClosureSlotsRecycled(t *testing.T) {
	e := NewEngine(1)
	const timers = 100
	ran := 0
	cycle := func() {
		for i := 0; i < timers; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() {
				ran++
				if i%2 == 0 {
					// Step frees this timer's slot before running it, so
					// the follow-up takes that slot back.
					e.Schedule(time.Second, func() { ran++ })
				}
			})
		}
		if e.Pending() != timers || len(e.actions) > timers {
			t.Fatalf("%d pending, closure table holds %d slots; want %d and at most %d",
				e.Pending(), len(e.actions), timers, timers)
		}
		e.Run(0)
	}
	for c := 0; c < 5; c++ {
		cycle()
	}
	if ran != 5*(timers+timers/2) {
		t.Fatalf("ran %d actions, want %d", ran, 5*(timers+timers/2))
	}
	if len(e.actions) != timers || len(e.free) != timers {
		t.Fatalf("closure table holds %d slots, %d free; want %d and %d", len(e.actions), len(e.free), timers, timers)
	}
	for _, a := range e.actions {
		if a != nil {
			t.Fatal("a drained engine still references a closure")
		}
	}
	e.Reset(1)
	if len(e.actions) != 0 || len(e.free) != 0 || e.handler != nil {
		t.Fatalf("Reset left %d slots, %d free, handler set=%v", len(e.actions), len(e.free), e.handler != nil)
	}
}
