package sim

import (
	"testing"
	"time"
)

// TestPendingAcrossRungs counts events through all three storage tiers:
// near ring, far ring, overflow heap.
func TestPendingAcrossRungs(t *testing.T) {
	e := NewEngine(1)
	delays := []time.Duration{
		0, time.Millisecond, 50 * time.Millisecond, // near window
		time.Second, 13 * time.Second, 30 * time.Second, // far days
		5 * time.Minute, time.Hour, // beyond the far span: overflow
	}
	for _, d := range delays {
		e.Schedule(d, func() {})
	}
	if got := e.Pending(); got != len(delays) {
		t.Fatalf("Pending = %d, want %d", got, len(delays))
	}
	ran := 0
	for e.Step() {
		ran++
	}
	if ran != len(delays) || e.Pending() != 0 {
		t.Fatalf("ran %d events (want %d), Pending = %d", ran, len(delays), e.Pending())
	}
	if e.Now() != time.Hour {
		t.Fatalf("Now = %v after drain, want 1h", e.Now())
	}
}

// TestSameTimestampBurstFIFO pins the FIFO tie-break for a burst far
// larger than any bucket threshold: all events share one timestamp, so
// they pile into a single bucket and must still run in schedule order.
func TestSameTimestampBurstFIFO(t *testing.T) {
	e := NewEngine(1)
	const n = 20_000
	got := make([]int, 0, n)
	e.SetHandler(func(arg, _ int32) { got = append(got, int(arg)) })
	for i := 0; i < n; i++ {
		e.ScheduleFn(time.Second, int32(i), 0)
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("burst order[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestHintHorizonGrowsFarSpan verifies that a horizon hint moves far
// timers from the overflow heap onto the far ring's O(1) route.
func TestHintHorizonGrowsFarSpan(t *testing.T) {
	e := NewEngine(1)
	long := 2 * time.Minute // beyond the default ~34 s far span
	e.Schedule(long, func() {})
	if len(e.cal.overflow) != 1 {
		t.Fatalf("pre-hint: overflow holds %d events, want 1", len(e.cal.overflow))
	}
	e.HintHorizon(5 * time.Minute)
	if len(e.cal.overflow) != 0 || e.cal.farCount != 1 {
		t.Fatalf("post-hint: overflow=%d farCount=%d, want 0/1", len(e.cal.overflow), e.cal.farCount)
	}
	e.Schedule(long, func() {})
	if e.cal.farCount != 2 {
		t.Fatalf("post-hint push: farCount = %d, want 2", e.cal.farCount)
	}
	ran := 0
	for e.Step() {
		ran++
	}
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
}

// TestRunUntilAcrossRungBoundaries runs the clock in small chunks across
// far-day boundaries: peeks must see through the far ring without
// disturbing order.
func TestRunUntilAcrossRungBoundaries(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	for d := 50 * time.Millisecond; d < 3*time.Second; d += 130 * time.Millisecond {
		d := d
		e.ScheduleAt(d, func() { got = append(got, d) })
	}
	want := len(got)
	for e.Pending() > 0 {
		e.Run(e.Now() + 77*time.Millisecond)
	}
	if len(got) == want {
		t.Fatal("no events executed")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestCrowdedBucketRefinesWidth floods one near window with distinct
// timestamps and checks the width-halving resize keeps order and loses
// nothing.
func TestCrowdedBucketRefinesWidth(t *testing.T) {
	e := NewEngine(1)
	shift0 := e.cal.nearShift
	const n = 5000
	var got []time.Duration
	for i := 0; i < n; i++ {
		// Distinct nanosecond timestamps inside one initial bucket width.
		at := time.Duration(1 + i*7)
		at = at % (1 << 17)
		e.ScheduleAt(at, func() { got = append(got, e.Now()) })
	}
	e.Run(0)
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d", i)
		}
	}
	if e.cal.nearShift >= shift0 {
		t.Fatalf("crowded bucket did not refine width: shift %d -> %d", shift0, e.cal.nearShift)
	}
}

// checkFarChains asserts the far ring's layout: each slot's chain holds
// one day, the day that maps to the slot, in strictly ascending seq
// (push) order; blocks before the tail are full and farTail ends the
// chain; the chains hold farCount events in all.
func checkFarChains(t *testing.T, c *calendarQueue) {
	t.Helper()
	total := 0
	for slot, blk := range c.farHead {
		if blk == nil {
			if c.farTail[slot] != nil {
				t.Fatalf("far slot %d: empty chain with a tail", slot)
			}
			continue
		}
		day := int64(blk.events[0].at) >> c.farShift
		if day&c.farMask != int64(slot) {
			t.Fatalf("far slot %d holds day %d", slot, day)
		}
		var last uint64
		for ; blk != nil; blk = blk.next {
			if blk.n == 0 || (blk.next != nil && blk.n != calFarBlockLen) {
				t.Fatalf("far slot %d: %d-event block mid-chain", slot, blk.n)
			}
			if blk.next == nil && c.farTail[slot] != blk {
				t.Fatalf("far slot %d: tail is not the chain's last block", slot)
			}
			for _, ev := range blk.events[:blk.n] {
				if d := int64(ev.at) >> c.farShift; d != day {
					t.Fatalf("far slot %d mixes days %d and %d", slot, day, d)
				}
				if ev.seq <= last {
					t.Fatalf("far slot %d (day %d): seq %d after %d", slot, day, ev.seq, last)
				}
				last = ev.seq
				total++
			}
		}
	}
	if total != c.farCount {
		t.Fatalf("far chains hold %d events, farCount = %d", total, c.farCount)
	}
}

// TestFarChainsInPushOrder pins the far-ring layout through pushes
// interleaved across days and a resizeFar that moves the chains and
// re-homes the overflow heap — including an overflow event whose day
// took a later push once the clock brought it into the span, which must
// stay in the heap rather than land behind that push.
func TestFarChainsInPushOrder(t *testing.T) {
	e := NewEngine(1)
	rng := NewRNG(1, "calendar.farchains")
	var got []time.Duration
	e.SetHandler(func(int32, int32) { got = append(got, e.Now()) })
	for i := 0; i < 40*calFarBlockLen; i++ {
		e.ScheduleFn(time.Second+time.Duration(rng.Int63n(int64(3*time.Second))), 0, 0)
	}
	for i := 0; i < 50; i++ {
		e.ScheduleFn(50*time.Second+time.Duration(rng.Int63n(int64(10*time.Second))), 0, 0)
	}
	c := &e.cal
	checkFarChains(t, c)
	if len(c.overflow) != 50 {
		t.Fatalf("overflow holds %d events, want 50", len(c.overflow))
	}
	e.HintHorizon(2 * time.Minute)
	if len(c.overflow) != 0 {
		t.Fatalf("post-hint: overflow holds %d events, want 0", len(c.overflow))
	}
	checkFarChains(t, c)
	e.Run(0)
	if len(got) != 40*calFarBlockLen+50 {
		t.Fatalf("ran %d events", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}

	// The day-collision case: an overflow timer, then a later push on its
	// day once the day is in range, then a span growth.
	e = NewEngine(1)
	c = &e.cal
	var order []int
	e.SetHandler(func(arg, _ int32) { order = append(order, int(arg)) })
	e.ScheduleFn(40*time.Second, 1, 0) // beyond the ~34 s span
	e.Run(8 * time.Second)
	e.ScheduleFn(32*time.Second, 2, 0) // same instant, now in range
	if len(c.overflow) != 1 || c.farCount != 1 {
		t.Fatalf("pre-hint: overflow=%d farCount=%d, want 1/1", len(c.overflow), c.farCount)
	}
	e.HintHorizon(2 * time.Minute)
	if len(c.overflow) != 1 || c.farCount != 1 {
		t.Fatalf("post-hint: overflow=%d farCount=%d, want the earlier push still in the heap", len(c.overflow), c.farCount)
	}
	checkFarChains(t, c)
	e.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("same-instant pops ran %v, want [1 2]", order)
	}
}

// TestMigratedBurstArrivesSorted pins what push-ordered far chains buy: a
// same-timestamp burst spanning many far blocks reaches its near bucket
// already in seq order, so the drain has nothing to sort.
func TestMigratedBurstArrivesSorted(t *testing.T) {
	e := NewEngine(1)
	const n = 20 * calFarBlockLen
	const at = time.Second // beyond the direct-insert window: far ring
	var got []int
	e.SetHandler(func(arg, _ int32) { got = append(got, int(arg)) })
	for i := 0; i < n; i++ {
		e.ScheduleFn(at, int32(i), 0)
	}
	c := &e.cal
	if c.farCount != n {
		t.Fatalf("farCount = %d, want %d", c.farCount, n)
	}
	// What pop does once the near ring runs dry; it pops right after.
	c.advanceTo(c.farNextDay())
	b := &c.near[(int64(at)>>c.nearShift)&c.nearMask]
	if len(b.events) != n || b.unsorted {
		t.Fatalf("migrated bucket: %d events, unsorted=%v; want %d presorted", len(b.events), b.unsorted, n)
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("burst order[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestBurstCycleAllocFree pins the storage recycling: once one engine
// has run a mean-field burst-and-drain cycle, running it again — from a
// later day boundary, so the bursts land on different ring slots — takes
// every bucket backing from the spare lists and every far block from the
// freelist.
func TestBurstCycleAllocFree(t *testing.T) {
	e := NewEngine(1)
	rng := NewRNG(1, "calendar.allocfree")
	delays := meanFieldDelays(rng)
	const steps, perStep = 3, 20_000
	picks := make([]int, steps*perStep)
	for i := range picks {
		picks[i] = rng.Intn(len(delays))
	}
	e.SetHandler(func(int32, int32) {})
	cycle := func() {
		day := time.Duration(1) << e.cal.farShift
		e.Run((e.Now()/day + 1) * day)
		for s := 0; s < steps; s++ {
			for _, p := range picks[s*perStep : (s+1)*perStep] {
				e.ScheduleFn(delays[p], 0, 0)
			}
			e.Run(e.Now() + 1300*time.Millisecond)
		}
		e.Run(0)
	}
	cycle() // grows the near ring, the spare lists and the block pool
	if a := testing.AllocsPerRun(3, cycle); a != 0 {
		t.Fatalf("warm burst-and-drain cycle allocates %v times, want 0", a)
	}
}

// TestResetRestoresNearGeometry pins that Reset takes the near ring back
// to init's size and width, and that a recycled engine regrows it from
// the rings it kept: a run whose burst halves the width, repeated after
// each Reset, allocates nothing.
func TestResetRestoresNearGeometry(t *testing.T) {
	e := NewEngine(1)
	cycle := func() {
		e.Reset(1)
		e.SetHandler(func(int32, int32) {})
		// 100 events 1 µs apart fill one initial 131 µs bucket.
		for i := 0; i < 100; i++ {
			e.ScheduleFn(time.Millisecond+time.Duration(i)*time.Microsecond, 0, 0)
		}
		e.Run(0)
	}
	cycle()
	grown := len(e.cal.near)
	if grown <= calNearBuckets {
		t.Fatalf("setup: burst left a %d-bucket near ring, want a finer one", grown)
	}
	e.Reset(1)
	if c := &e.cal; len(c.near) != calNearBuckets || c.nearShift != calNearShift || c.nearMask != calNearBuckets-1 {
		t.Fatalf("Reset left a %d-bucket near ring of shift %d, want init's %d of shift %d",
			len(c.near), c.nearShift, calNearBuckets, calNearShift)
	}
	if a := testing.AllocsPerRun(3, cycle); a != 0 {
		t.Fatalf("regrowing the near ring after Reset allocates %v times, want 0", a)
	}
	if got := len(e.cal.near); got != grown {
		t.Fatalf("the repeated burst left a %d-bucket near ring, the first one %d", got, grown)
	}
}

// backings returns the near-bucket backing arrays the calendar holds in
// live buckets and in its spare lists.
func backings(c *calendarQueue) (live, spare map[*event]bool) {
	live, spare = map[*event]bool{}, map[*event]bool{}
	for _, b := range c.near {
		if cap(b.events) > 0 {
			live[&b.events[:1][0]] = true
		}
	}
	for _, list := range c.spare {
		for _, e := range list {
			spare[&e[:1][0]] = true
		}
	}
	return live, spare
}

// TestResetAndResizeKeepSpares pins that neither a width-halving resize
// nor Reset drops near-bucket storage: every backing ends up in a live
// bucket or a spare list, and Reset leaves them all spare.
func TestResetAndResizeKeepSpares(t *testing.T) {
	e := NewEngine(1)
	e.SetHandler(func(int32, int32) {})
	for i := 0; i < 400; i++ {
		e.ScheduleFn(time.Duration(i%40)*time.Millisecond, 0, 0)
	}
	// Drain half the buckets: their backings turn spare.
	e.Run(20 * time.Millisecond)
	c := &e.cal
	live, spare := backings(c)
	if len(live) == 0 || len(spare) == 0 {
		t.Fatalf("setup: %d live and %d spare backings, want both", len(live), len(spare))
	}
	c.resizeNear(c.nearShift - 1)
	live2, spare2 := backings(c)
	for p := range live {
		if !live2[p] && !spare2[p] {
			t.Fatal("resizeNear dropped a live bucket's backing")
		}
	}
	for p := range spare {
		if !live2[p] && !spare2[p] {
			t.Fatal("resizeNear dropped a spare backing")
		}
	}
	e.Reset(1)
	live3, spare3 := backings(c)
	if len(live3) != 0 {
		t.Fatalf("Reset left %d buckets holding backings", len(live3))
	}
	for p := range live2 {
		if !spare3[p] {
			t.Fatal("Reset dropped a live bucket's backing")
		}
	}
	for p := range spare2 {
		if !spare3[p] {
			t.Fatal("Reset dropped a spare backing")
		}
	}
}
