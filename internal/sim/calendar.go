package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"time"
)

// calendarQueue is a two-rung calendar (ladder) queue over the engine's
// bounded delay horizon:
//
//   - a fine-grained NEAR ring of per-bucket FIFO slices covering a short
//     window just ahead of the clock, sorted lazily bucket-by-bucket as
//     the drain reaches them;
//   - a coarse FAR ring of day-width buckets in push order covering the
//     full delay horizon, each migrated wholesale into the near ring when
//     the clock reaches its day;
//   - a conventional binary min-heap for the rare event beyond even the
//     far span.
//
// Gossip-delay events live on a bounded horizon — every hop delay is at
// most maxDelay×asyncFactor ahead of the clock — so scheduling is one
// append into a bucket, popping is one index bump, and each event
// migrates between rungs at most once: amortised O(1) per event (the
// calendar-queue result of Brown 1988; the two-rung split is the ladder
// variant that keeps it O(1) when event times cluster instead of
// spreading uniformly). The only ordering work left is at most one
// sort per near bucket per drain, and only for buckets whose appends
// fell out of order: an insertion sort over sequential memory for
// ordinary occupancy, O(k log k) for the rare crowded bucket — where
// the old binary heap paid O(log population) per operation scattered
// across a near-megabyte slice.
//
// Ordering contract: pops follow strict (at, seq) order — the golden
// figure outputs pin this. Two events in one near bucket may differ in
// timestamp, hence the lazy sort. Within a timestamp, events reach a
// bucket in seq order — direct pushes trivially, migrated ones because
// each far day chain keeps its events in push order — so a
// same-timestamp burst arrives presorted and needs no sort at all.
// Events pushed into the bucket currently being drained insert into its
// still-sorted tail.
//
// Memory layout: an event is 24 bytes of integers (see event), so near
// buckets, far blocks and the overflow heap hold no pointers the garbage
// collector must scan, and nothing needs clearing when storage is
// recycled.
//
// Memory bounds: both rings have a fixed bucket count (near buckets
// double only while halving the width, far buckets double only to cover
// a grown horizon, both capped), and neither rung keeps storage per
// slot: a near bucket hands its backing to a spare list, one per
// capacity class, when it drains and takes one when it refills, and far
// days chain blocks from a shared freelist. Idle storage is therefore
// bounded by the peak pending population, not by every slot's lifetime
// peak — which, with burst instants rotating across slots round by
// round, would grow every slot to the burst size.
//
// Invariants:
//
//   - every queued event has at >= the engine clock at all times (pushes
//     clamp, pops advance the clock monotonically);
//   - near events all lie in [migrated - farWidth, migrated + farWidth):
//     the most recently migrated far day plus the day the window is
//     currently inside. The two days together span exactly the near ring,
//     so distinct times never collide in a near bucket index;
//   - the far chain of day farCursor+1 — the [migrated, migrated+farWidth)
//     day pushes insert into the near ring directly — is always empty:
//     advanceTo drains it the moment the window reaches it. Without the
//     drain, a day's events could split between rungs with the far part
//     popping late; with it, short-delay events take the near route in
//     one write instead of far block → near bucket (the double write that
//     dominated round CPU before this scheme);
//   - far events all lie in [migrated + farWidth, migrated + farSpan -
//     farWidth), one far lap with a spare day of margin, so each far
//     slot holds at most one day, and each day chain is seq-ascending;
//   - the near cursor points at or before the earliest near event's
//     absolute bucket; farCursor's day is the last one migrated.
type calendarQueue struct {
	// near is the fine ring; len is a power of two.
	near []calBucket
	// nearShift sets the near bucket width to 1<<nearShift nanoseconds.
	nearShift uint
	nearMask  int64
	// cursor is the absolute near-bucket number (at >> nearShift, not
	// wrapped) the drain resumes from. It advances monotonically except
	// when a push lands behind it.
	cursor int64
	// ring counts events currently stored in near buckets.
	ring int

	// farHead is the coarse ring of day buckets; len is a power of two.
	// Each entry heads a chain of fixed-size event blocks (nil = empty
	// day) that farTail ends: pushes append at the tail, so a chain holds
	// its day in push (seq) order and migrates into the near ring in that
	// order. Every slot holds at most one day (far events span less than
	// a lap).
	farHead []*farBlock
	farTail []*farBlock
	// farShift sets the day width to 1<<farShift nanoseconds; it is
	// derived from the near geometry so a whole day always fits the near
	// ring (farWidth == nearSpan/2).
	farShift uint
	farMask  int64
	// farCursor is the absolute day number last migrated into the near
	// ring; migrated == (farCursor+1) << farShift.
	farCursor int64
	// farCount counts events currently stored in far buckets.
	farCount int
	// migrated is the time boundary between the rungs: events before it
	// are in the near ring (or already executed), events at or after it
	// are in the far ring or overflow.
	migrated time.Duration

	// freeBlk heads the freelist of far blocks. Blocks are allocated one
	// at a time and only ever recycled, so far memory tracks the peak far
	// population and growing it never copies a block.
	freeBlk *farBlock

	// rings holds the empty near rings a resize replaced, by size:
	// rings[k] has calNearBuckets<<k buckets. reset goes back to the
	// initial ring, so a recycled calendar halves its width again as its
	// run demands, taking each finer ring from here instead of allocating.
	rings [calNearClasses][]calBucket

	// spare holds idle near-bucket backings by capacity class:
	// spare[k] backings hold calBucketMin<<(2k) events. Drained buckets
	// file their backing here and filling buckets take one, so near
	// memory follows the pending population.
	spare [calBucketClasses][][]event

	// overflow holds events beyond the far span, ordered by (at, seq).
	overflow eventQueue

	// Routing statistics: plain (non-atomic) counters — the queue is
	// single-threaded — incremented on the push/migrate paths and read
	// through Engine.SchedStats. They are observability only and never
	// influence scheduling; Engine.Reset clears them with the rest of the
	// counters so per-run deltas stay well-defined on recycled engines.
	statNear     uint64 // pushes routed to the near ring
	statFar      uint64 // pushes routed to the far ring
	statOverflow uint64 // pushes routed to the overflow heap
	statMigrated uint64 // events migrated far ring -> near ring
}

// calBucket is one near-ring slot: an append-order event slice that gets
// sorted by (at, seq) when the drain cursor reaches it, then drained by
// advancing next. An empty bucket holds no backing (events == nil).
//
// unsorted tracks, append by append, whether the slice has fallen out of
// (at, seq) order since its last drain; gossip fan-outs schedule mostly
// ascending timestamps, so most buckets arrive presorted and the drain
// can skip the sortBucket verification walk entirely (its compares move
// to one per append).
type calBucket struct {
	events   []event
	next     int32
	sorted   bool
	unsorted bool
}

// farBlock is one fixed-size chunk of a far day's push-ordered event
// chain.
type farBlock struct {
	next   *farBlock // next block in the day chain or freelist
	n      int32     // events used
	events [calFarBlockLen]event
}

const (
	// calNearBuckets is the initial near ring size; width halving doubles
	// it up to calMaxNearBuckets while keeping the near span constant.
	calNearBuckets    = 2048
	calMaxNearBuckets = 1 << 16
	// calNearClasses counts the near ring sizes, 2048 to 1<<16.
	calNearClasses = 6
	// calNearShift gives 2^17 ns ≈ 131 µs near buckets: a 268 ms near
	// span, matching the simulator's densest delay windows.
	calNearShift = 17
	// calMaxBucketLen is the near-bucket occupancy at which the width
	// halves. It sits well above the Poisson tail of the equilibrium
	// occupancy (a few events per bucket), so only genuine density shifts
	// trigger a resize, not burst noise.
	calMaxBucketLen = 32
	// calMinNearShift (1 µs buckets) stops width halving: a burst of
	// events on one exact timestamp can never be spread by a finer grid,
	// it simply lives in one bucket (where its seq-ordered appends leave
	// nothing to sort).
	calMinNearShift = 10
	// calFarBuckets is the initial far ring size: with 134 ms days the
	// initial far span is ~34 s, covering the default protocol's timers
	// and its 8×-inflated weak-synchrony delays without any resize.
	calFarBuckets = 256
	// calMaxFarBuckets caps horizon growth (the overflow heap absorbs
	// anything beyond the capped span).
	calMaxFarBuckets = 1 << 12
	// calOverflowSlack is how many overflow events are tolerated before a
	// far-span regrow is considered.
	calOverflowSlack = 64
	// calFarBlockLen sizes the pooled far blocks (~1.5 KB each): small
	// enough that sparse days waste little, large enough that burst days
	// chain few blocks.
	calFarBlockLen = 64
	// calBucketMin is the smallest near-bucket backing; each capacity
	// class is 4× the one below, so a bucket filling to k events pays
	// O(log k) grow copies totalling fewer than 4k/3 moves.
	calBucketMin = 8
	// calBucketClasses bounds the class ladder: the largest class holds
	// 8·4^15 events, far beyond any burst memory can hold.
	calBucketClasses = 16
)

func (c *calendarQueue) init() {
	c.near = make([]calBucket, calNearBuckets)
	c.nearShift = calNearShift
	c.nearMask = calNearBuckets - 1
	c.farHead = make([]*farBlock, calFarBuckets)
	c.farTail = make([]*farBlock, calFarBuckets)
	// farWidth = nearSpan/2: log2(2048) - 1 = 10 extra bits.
	c.farShift = calNearShift + 10
	c.farMask = calFarBuckets - 1
	c.farCursor = -1
	c.migrated = 0
}

// len reports the total number of queued events.
func (c *calendarQueue) len() int { return c.ring + c.farCount + len(c.overflow) }

// reset empties the calendar back to its post-init state while keeping
// every allocation: near-bucket backings go to the spare lists, far
// blocks to the freelist, and a finer near ring to rings. The near ring
// goes back to init's size and width, so a run halves it only as its own
// density demands, not at the finest width an earlier run needed; the
// far ring keeps its size. Pop order is strict (at, seq) regardless of
// geometry, so a reset calendar schedules identically to a fresh one —
// it just skips the allocations of the warm-up growth.
func (c *calendarQueue) reset() {
	for i := range c.near {
		c.drop(&c.near[i])
	}
	if len(c.near) != calNearBuckets {
		c.putRing(c.near)
		c.near = c.takeRing(calNearBuckets)
		c.nearShift = calNearShift
		c.nearMask = calNearBuckets - 1
	}
	c.cursor = 0
	c.ring = 0
	for slot := range c.farHead {
		c.freeChain(int64(slot))
	}
	c.farCursor = -1
	c.farCount = 0
	c.migrated = 0
	c.overflow = c.overflow[:0]
	c.statNear = 0
	c.statFar = 0
	c.statOverflow = 0
	c.statMigrated = 0
}

// ensureWindow advances the rung boundary after the clock jumped past it
// (an overflow pop, or an idle stretch). Far days strictly before the
// clock's day are necessarily empty — every event is at or after the
// clock — so only the clock's own day and the one after it (the new
// direct-insert day) can hold events, and advanceTo drains both.
func (c *calendarQueue) ensureWindow(now time.Duration) {
	if now < c.migrated {
		return
	}
	c.advanceTo(int64(now) >> c.farShift)
}

// advanceTo moves the rung boundary so `day` is the last migrated far
// day, then drains both far chains the near window now covers: day
// itself into [migrated - farWidth, migrated) and day+1 — the new
// direct-insert day — into [migrated, migrated + farWidth). Draining
// day+1 eagerly is what lets push route that day's events straight to
// the near ring without ever splitting a day between rungs.
func (c *calendarQueue) advanceTo(day int64) {
	c.farCursor = day
	c.migrated = time.Duration((day + 1) << c.farShift)
	if c.farCount > 0 {
		c.migrate(day)
	}
	if c.farCount > 0 {
		c.migrate(day + 1)
	}
}

// migrate moves one far day's events into the near ring, head to tail
// (push order), and recycles its blocks. The two days advanceTo
// migrates land within [migrated - farWidth, migrated + farWidth) —
// exactly the near span, so near indices cannot collide. Walking the
// chain in push order hands each near bucket its same-timestamp events
// in seq order, so a migrated burst stays presorted; direct near inserts
// or interleaved timestamps may still unsort a bucket, and insertNear's
// tracking sends those through sortBucket.
func (c *calendarQueue) migrate(day int64) {
	slot := day & c.farMask
	for blk := c.farHead[slot]; blk != nil; blk = blk.next {
		n := int(blk.n)
		for i := range blk.events[:n] {
			c.insertNear(blk.events[i])
		}
		c.farCount -= n
		c.statMigrated += uint64(n)
	}
	c.freeChain(slot)
}

// freeChain splices far slot's chain onto the block freelist; appendFar
// empties a block when it takes it back.
func (c *calendarQueue) freeChain(slot int64) {
	head, tail := c.farHead[slot], c.farTail[slot]
	if head == nil {
		return
	}
	tail.next = c.freeBlk
	c.freeBlk = head
	c.farHead[slot], c.farTail[slot] = nil, nil
}

// appendFar chains ev onto the tail of its day bucket, taking a block
// from the freelist (or allocating one) when the tail is full.
func (c *calendarQueue) appendFar(ev event) {
	slot := (int64(ev.at) >> c.farShift) & c.farMask
	t := c.farTail[slot]
	if t == nil || t.n == calFarBlockLen {
		nb := c.freeBlk
		if nb != nil {
			c.freeBlk = nb.next
			nb.next, nb.n = nil, 0
		} else {
			nb = new(farBlock)
		}
		if t == nil {
			c.farHead[slot] = nb
		} else {
			t.next = nb
		}
		c.farTail[slot] = nb
		t = nb
	}
	t.events[t.n] = ev
	t.n++
	c.farCount++
}

// insertNear places ev in its near bucket and returns the bucket's
// pending event count.
func (c *calendarQueue) insertNear(ev event) int {
	abs := int64(ev.at) >> c.nearShift
	if abs < c.cursor {
		// The drain already passed this bucket (possible after the clock
		// jumped); pull the cursor back so the event is not skipped.
		c.cursor = abs
	}
	b := &c.near[abs&c.nearMask]
	e := b.events
	if len(e) == cap(e) {
		e = c.grow(e)
	}
	e = append(e, ev)
	if b.sorted {
		// The bucket is mid-drain: keep its undrained tail sorted. New
		// events rarely precede anything already pending (their time is
		// at least the clock), so the scan almost always stops at once.
		i := len(e) - 1
		for i > int(b.next) && ev.before(&e[i-1]) {
			e[i] = e[i-1]
			i--
		}
		e[i] = ev
	} else if !b.unsorted && len(e) > 1 && ev.before(&e[len(e)-2]) {
		// Appends have broken ascending order: the drain must sort.
		b.unsorted = true
	}
	b.events = e
	c.ring++
	return len(e) - int(b.next)
}

// grow returns e copied into a spare backing of the next capacity class
// (the smallest class when e has none) and files e's old backing as a
// spare.
func (c *calendarQueue) grow(e []event) []event {
	k := 0
	if cap(e) > 0 {
		k = bucketClass(e) + 1
	}
	var ne []event
	if n := len(c.spare[k]); n > 0 {
		ne = c.spare[k][n-1]
		c.spare[k] = c.spare[k][:n-1]
	} else {
		ne = make([]event, 0, calBucketMin<<(2*k))
	}
	ne = append(ne, e...)
	c.release(e)
	return ne
}

// bucketClass returns the capacity class of a calendar-made backing,
// whose capacity is exactly calBucketMin<<(2k).
func bucketClass(e []event) int {
	return (bits.TrailingZeros(uint(cap(e))) - 3) / 2
}

// release files a bucket backing as a spare; a nil backing is ignored.
func (c *calendarQueue) release(e []event) {
	if cap(e) == 0 {
		return
	}
	k := bucketClass(e)
	c.spare[k] = append(c.spare[k], e[:0])
}

// drop empties bucket b, filing its backing as a spare.
func (c *calendarQueue) drop(b *calBucket) {
	c.release(b.events)
	*b = calBucket{}
}

// push routes ev to the near ring, the far ring, or the overflow heap,
// then reacts to pressure by resizing. now is the engine clock; ev.at is
// already clamped to now or later.
//
// Events inside the current day — [migrated, migrated + farWidth) — go
// straight to the near ring rather than far ring → migrate → near ring.
// Short-delay gossip hops land in that window almost always, and the
// old route wrote each of them twice (profiles put the far-block
// round-trip at ~a quarter of round CPU); the doubled near window costs
// nothing because a far day is half the near span by construction.
func (c *calendarQueue) push(ev event, now time.Duration) {
	c.ensureWindow(now)
	if ev.at < c.migrated+time.Duration(1)<<c.farShift {
		c.statNear++
		if c.insertNear(ev) > calMaxBucketLen &&
			c.nearShift > calMinNearShift && len(c.near) < calMaxNearBuckets {
			// Halve the near width at constant span. The far geometry is
			// untouched: a far day still fits the near ring.
			c.resizeNear(c.nearShift - 1)
		}
		return
	}
	if (int64(ev.at)>>c.farShift)-c.farCursor < c.farMask {
		c.statFar++
		c.appendFar(ev)
		return
	}
	c.statOverflow++
	c.overflow.push(ev)
	// A growing overflow means the horizon outgrew the far span (a delay
	// model without a hint): double the far ring. A few far-future
	// timers alone never trigger this.
	if len(c.overflow) > calOverflowSlack && len(c.overflow) > c.ring+c.farCount &&
		len(c.farHead) < calMaxFarBuckets {
		c.resizeFar(len(c.farHead) * 2)
	}
}

// sortBucket sorts a near bucket by (at, seq). Buckets up to
// calMaxBucketLen events — the steady state, since fuller buckets halve
// the width — take an insertion sort over sequential memory. Fuller ones
// occur once the width bottoms out under timestamp-clustered bursts: two
// delays of a step's table that fall in one 4 µs bucket interleave a few
// hundred events, which insertion sort would pay for in O(k²) moves.
// Those sort in place in O(k log k). (A single-timestamp burst arrives
// presorted and never gets here.) Seqs are unique, so the three-way
// compare is strict and the unstable sort yields the one (at, seq)
// order.
func sortBucket(e []event) {
	if len(e) > calMaxBucketLen {
		slices.SortFunc(e, func(a, b event) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		return
	}
	for i := 1; i < len(e); i++ {
		ev := e[i]
		j := i
		for j > 0 && ev.before(&e[j-1]) {
			e[j] = e[j-1]
			j--
		}
		e[j] = ev
	}
}

// peekNear returns a pointer to the earliest near-ring event, walking
// the cursor over empty buckets and sorting the bucket it lands on, or
// nil when the near ring is empty. The walk terminates because ring > 0
// guarantees a non-empty bucket within the migrated window, and it is
// correct because every near event sits at or after the cursor's bucket.
func (c *calendarQueue) peekNear(now time.Duration) *event {
	if c.ring == 0 {
		return nil
	}
	// Every near event lies in [migrated - farWidth, migrated + farWidth);
	// resume the walk no earlier than that window's base, not at the
	// clock's bucket — after a migration jumped the window ahead of an
	// idle clock, walking from the clock would visit the window's buckets
	// at aliased ring positions, out of time order.
	lo := (int64(c.migrated) >> c.nearShift) - int64(1)<<(c.farShift-c.nearShift)
	if l := int64(now) >> c.nearShift; l > lo {
		lo = l
	}
	if c.cursor < lo {
		c.cursor = lo
	}
	for {
		if b := &c.near[c.cursor&c.nearMask]; int(b.next) < len(b.events) {
			if !b.sorted {
				// Presorted buckets (the common case, tracked append by
				// append) skip the verification walk.
				if b.unsorted {
					sortBucket(b.events)
					b.unsorted = false
				}
				b.sorted = true
			}
			return &b.events[b.next]
		}
		c.cursor++
	}
}

// farNextDay returns the next non-empty far day at or after
// c.farCursor+1. The caller guarantees farCount > 0, which bounds the
// walk to one far lap.
func (c *calendarQueue) farNextDay() int64 {
	day := c.farCursor + 1
	for c.farHead[day&c.farMask] == nil {
		day++
	}
	return day
}

// farMin returns a pointer to the earliest event of far day `day`, by
// linear scan over its block chain (far days are in push order, not
// time order).
func (c *calendarQueue) farMin(day int64) *event {
	var min *event
	for blk := c.farHead[day&c.farMask]; blk != nil; blk = blk.next {
		for i := 0; i < int(blk.n); i++ {
			if min == nil || blk.events[i].before(min) {
				min = &blk.events[i]
			}
		}
	}
	return min
}

// peek returns a pointer to the earliest queued event without removing
// it, or nil when the queue is empty. The pointer is invalidated by the
// next push or pop. Peeking never migrates a far day: migration ahead of
// the clock is only safe when the migrated day's minimum is popped at
// once (see pop) — a peek-only caller such as Run(until) may stop
// without popping, and events pushed afterwards would then alias the
// displaced near window. A peek into the far ring instead scans the next
// day read-only.
func (c *calendarQueue) peek(now time.Duration) *event {
	c.ensureWindow(now)
	ring := c.peekNear(now)
	if ring == nil && c.farCount > 0 {
		ring = c.farMin(c.farNextDay())
	}
	if len(c.overflow) == 0 {
		return ring
	}
	over := &c.overflow[0]
	if ring == nil || over.before(ring) {
		return over
	}
	return ring
}

// pop removes and returns the earliest queued event in (at, seq) order.
// When the near ring is drained it migrates far days — skipping empty
// ones — until the near ring has an event or the far ring drains,
// stopping if the overflow heap's minimum precedes the next far day.
// Migrating a day ahead of the clock is safe here precisely because the
// pop then returns that day's minimum (nothing queued precedes it), so
// the engine advances the clock into the day before any further push.
func (c *calendarQueue) pop(now time.Duration) (event, bool) {
	c.ensureWindow(now)
	ring := c.peekNear(now)
	for ring == nil && c.farCount > 0 {
		day := c.farNextDay()
		if len(c.overflow) > 0 && c.overflow[0].at < time.Duration(day<<c.farShift) {
			break
		}
		c.advanceTo(day)
		ring = c.peekNear(now)
	}
	if len(c.overflow) > 0 && (ring == nil || c.overflow[0].before(ring)) {
		return c.overflow.pop(), true
	}
	if ring == nil {
		return event{}, false
	}
	ev := *ring
	b := &c.near[c.cursor&c.nearMask]
	b.next++
	if int(b.next) == len(b.events) {
		// Fully drained: hand the backing to whichever bucket fills next.
		c.drop(b)
	}
	c.ring--
	return ev, true
}

// hintHorizon guarantees that events up to horizon ahead of the clock
// take a ring route, growing the far span at constant day width. The
// span only grows — shrinking on a transient delay-factor reset would
// thrash — and growing is one O(current population) rebuild, so callers
// hint eagerly (network construction, delay-factor changes).
func (c *calendarQueue) hintHorizon(horizon time.Duration) {
	if horizon <= 0 {
		return
	}
	n := len(c.farHead)
	// A worst-case event at now+horizon lands horizon>>farShift + 1 days
	// ahead of farCursor when it crosses a day boundary, and push demands
	// strictly fewer than farMask (= n-1) days of lead: grow until
	// horizon>>farShift <= n-3.
	for int64(horizon)>>c.farShift >= int64(n-2) && n < calMaxFarBuckets {
		n *= 2
	}
	if n != len(c.farHead) {
		c.resizeFar(n)
	}
}

// resizeNear rebuilds the near ring with a finer bucket width at
// constant span, redistributing the pending near events, filing the
// old buckets' backings as spares and the old ring in rings. Width only
// shrinks, geometrically, so total resize work is O(population) per
// halving and halvings are bounded.
func (c *calendarQueue) resizeNear(shift uint) {
	old := c.near
	c.near = c.takeRing(len(old) * 2)
	c.nearShift = shift
	c.nearMask = int64(len(c.near) - 1)
	// migrated is far-day aligned, so it is also aligned to the finer
	// grid; the cursor restarts at the window base and re-walks.
	c.cursor = (int64(c.migrated) >> shift) - int64(len(c.near))
	if c.cursor < 0 {
		c.cursor = 0
	}
	c.ring = 0
	for i := range old {
		b := &old[i]
		for _, ev := range b.events[b.next:] {
			c.insertNear(ev)
		}
		c.drop(b)
	}
	c.putRing(old)
}

// takeRing returns an empty near ring of n buckets, a kept one if rings
// has it.
func (c *calendarQueue) takeRing(n int) []calBucket {
	k := bits.TrailingZeros(uint(n / calNearBuckets))
	if r := c.rings[k]; r != nil {
		c.rings[k] = nil
		return r
	}
	return make([]calBucket, n)
}

// putRing files an emptied near ring in rings.
func (c *calendarQueue) putRing(r []calBucket) {
	c.rings[bits.TrailingZeros(uint(len(r)/calNearBuckets))] = r
}

// resizeFar rebuilds the far ring with more day buckets at constant
// width. Each old slot holds one day, so its chain moves whole — head and
// tail — to the day's new slot; and overflow events that the wider span
// now covers migrate into the ring, in push order so every chain stays
// seq-ascending.
func (c *calendarQueue) resizeFar(nbuckets int) {
	oldHead, oldTail := c.farHead, c.farTail
	c.farHead = make([]*farBlock, nbuckets)
	c.farTail = make([]*farBlock, nbuckets)
	c.farMask = int64(nbuckets - 1)
	for i, h := range oldHead {
		if h != nil {
			slot := (int64(h.events[0].at) >> c.farShift) & c.farMask
			c.farHead[slot], c.farTail[slot] = h, oldTail[i]
		}
	}
	oldOverflow := c.overflow
	c.overflow = nil
	slices.SortFunc(oldOverflow, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	for _, ev := range oldOverflow {
		day := int64(ev.at) >> c.farShift
		switch t := c.farTail[day&c.farMask]; {
		case day <= c.farCursor+1:
			// Inside the near window (overflow events never precede
			// migrated - farWidth: the pop loop stops advancing at the
			// overflow minimum). Chaining onto a migrated day — or the
			// direct-insert day, whose far chain must stay empty — would
			// strand the event a far lap out of order.
			c.insertNear(ev)
		case day-c.farCursor < c.farMask && (t == nil || t.events[t.n-1].seq < ev.seq):
			c.appendFar(ev)
		default:
			// Beyond the span, or its day entered the span (as the clock
			// advanced) and took later pushes: the heap keeps it, which
			// pop merges in order either way.
			c.overflow.push(ev)
		}
	}
}
