package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
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
	_ = e.Run(0)
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
	_ = e.Run(0)
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 2*time.Second {
		t.Errorf("hits = %v", hits)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v after drain, want 5s", e.Now())
	}
	// An already-empty queue behaves the same.
	if err := e.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7*time.Second {
		t.Errorf("Now = %v on empty queue, want 7s", e.Now())
	}
	// A zero until still means "no time limit": the clock stays at the
	// last event's timestamp.
	e2 := NewEngine(1)
	e2.Schedule(time.Second, func() {})
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
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
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v after drain, want 3s", e.Now())
	}
	if s := e.SchedStats(); s.Scheduled != 1 || s.Executed != 1 || e.Pending() != 0 {
		t.Errorf("elided event was counted: %+v, pending %d", s, e.Pending())
	}
	// A deadline before the elided time stops the clock at the deadline;
	// the next drain then reaches the elided time.
	e.Elide(4 * time.Second) // at 7s
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now = %v at deadline, want 5s", e.Now())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7*time.Second {
		t.Errorf("Now = %v after second drain, want 7s", e.Now())
	}
	// Reset forgets elided events.
	e.Elide(time.Second)
	e.Reset(1)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Errorf("Now = %v after Reset and drain, want 0", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++; e.Stop() })
	e.Schedule(2*time.Millisecond, func() { ran++ })
	if err := e.Run(0); err != ErrStopped {
		t.Errorf("Run error = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-time.Second, func() { ran = true })
	_ = e.Run(0)
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
	_ = e.Run(0)
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
	_ = e.Run(0)
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
	var got []int
	record := func(arg int, _ any) { got = append(got, arg) }
	e.ScheduleFn(20*time.Millisecond, record, 3, nil)
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.ScheduleFn(10*time.Millisecond, record, 2, nil) // same time: FIFO after the closure
	e.Schedule(30*time.Millisecond, func() { got = append(got, 4) })
	e.ScheduleFn(-5*time.Millisecond, record, 0, nil) // negative delay clamps to now
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// ScheduleFn passes its payload through untouched.
func TestScheduleFnPayload(t *testing.T) {
	e := NewEngine(1)
	type box struct{ v int }
	b := &box{v: 7}
	var seen *box
	e.ScheduleFn(0, func(_ int, p any) { seen = p.(*box) }, 0, b)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if seen != b {
		t.Fatal("payload pointer did not round-trip")
	}
}
