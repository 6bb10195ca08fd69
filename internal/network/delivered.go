package network

import "encoding/binary"

// deliveredSet is the inverted gossip de-duplication layout: one
// open-addressed table keyed by message ID whose payload is a bitset of
// the nodes the message has reached. A per-node layout would probe a
// distinct table per node, so the duplicate-heavy relay path would take
// a random cache miss across ~N tables for every delivery. Here a
// message's delivery state is contiguous — one cache line for N≤512 —
// and the common duplicate case is a single bit test next to the slot
// the probe already touched. The differential tests check every verdict
// against per-node sets.
//
// Message IDs are SHA-256 outputs, so the ID's first 8 bytes are already
// uniform and serve as probe key and hash; only a prefix hit (almost
// always a true duplicate) pays the full-ID confirm. Epoch-stamped slots
// make the per-round reset a counter bump. Bit words are zeroed lazily
// when a slot is claimed for the current epoch.
//
// Beyond 512 nodes the per-slot bitmap no longer rides along inline:
// pre-allocating slots×(N/64) words would grow as messages×N/8 bits and
// dominates memory at paper-scale node counts (ROADMAP: cap the bitset
// words per slot before -full scenario sweeps). Instead each slot keeps
// deliveredMaxInlineWords inline words covering nodes [0, 512) and
// spills deliveries to higher node IDs into a per-slot overflow: first a
// compact node-ID list (most messages reach only a handful of the high
// nodes before the round drains), promoted to a full extension bitmap
// from a recycled pool once the list saturates. Table memory is then
// slots×8 words plus extensions for the hot slots only.
type deliveredSet struct {
	slots []deliveredSlot
	// bits holds the inline per-slot delivery bitsets: slot i owns
	// bits[i*inlineWords : (i+1)*inlineWords].
	bits []uint64
	// words is the total word count a full bitmap for n nodes needs;
	// inlineWords = min(words, deliveredMaxInlineWords) of them live
	// inline, the rest in per-slot extensions.
	words       int
	inlineWords int
	// exts is the extension pool; extLive entries are claimed by slots of
	// the current epoch. reset recycles the pool wholesale.
	exts    []deliveredExt
	extLive int
	// count is the number of live (current-epoch) slots, i.e. distinct
	// messages seen this round.
	count int
	// epoch identifies the current round's population; slots from other
	// epochs are treated as empty. Starts at 1 — a zeroed slot is never
	// live.
	epoch uint32
}

type deliveredSlot struct {
	// prefix is the ID's first 8 bytes: probe key and hash in one.
	prefix uint64
	epoch  uint32
	// ext is the 1-based index of this slot's overflow extension in exts;
	// 0 means none claimed yet.
	ext int32
	// id is the full message ID, compared only on a prefix hit.
	id [32]byte
}

// deliveredExt tracks deliveries to nodes beyond the inline window for
// one slot: a compact ID list until it saturates, then a dense bitmap
// over the overflow range. list and bits keep their capacity across
// epochs via the pool.
type deliveredExt struct {
	list     []int32
	bits     []uint64
	promoted bool
}

// deliveredMinSlots is the initial table size; steady-state rounds reuse
// the grown table.
const deliveredMinSlots = 64

// deliveredMaxInlineWords caps the inline per-slot bitmap at 8 words
// (512 nodes) — one cache line, and exactly the historical layout for
// every network that fits.
const deliveredMaxInlineWords = 8

// deliveredOverflowCap is the compact-list length at which an overflow
// promotes to the dense extension bitmap.
const deliveredOverflowCap = 24

// init sizes the bitset geometry for n nodes. Must be called before the
// first mark.
func (s *deliveredSet) init(n int) {
	if n < 1 {
		n = 1
	}
	s.words = (n + 63) / 64
	s.inlineWords = s.words
	if s.inlineWords > deliveredMaxInlineWords {
		s.inlineWords = deliveredMaxInlineWords
	}
}

// adopt re-initialises a recycled set for a population of n, keeping the
// grown slot table, inline bitset, and extension pool whenever the
// inline stride is unchanged — the arena path that spares a fresh
// Network the steady-state table growth. A stride change (crossing the
// 512-node inline window in either direction) invalidates the per-slot
// bit windows, so the table and bitset are dropped and regrow lazily;
// extension buffers survive either way (promotion re-slices and zeroes
// them per claim).
func (s *deliveredSet) adopt(n int) {
	if n < 1 {
		n = 1
	}
	words := (n + 63) / 64
	inline := words
	if inline > deliveredMaxInlineWords {
		inline = deliveredMaxInlineWords
	}
	if inline != s.inlineWords {
		s.slots = nil
		s.bits = nil
	}
	s.words = words
	s.inlineWords = inline
	s.reset()
}

// reset retires every entry by bumping the epoch; table, bitset, and
// extension memory is retained, and stale state is re-initialised only
// when its slot is reclaimed.
func (s *deliveredSet) reset() {
	s.epoch++
	s.count = 0
	s.extLive = 0
	if s.epoch == 0 {
		// uint32 wrap (once per 4 billion rounds): stale slots could now
		// alias the restarted epoch sequence, so clear them for real.
		for i := range s.slots {
			s.slots[i] = deliveredSlot{}
		}
		s.epoch = 1
	}
}

// mark records that node received the message id, reporting whether this
// was the first delivery of id to node (true = deliver, false =
// duplicate).
func (s *deliveredSet) mark(id *[32]byte, node int) bool {
	if s.epoch == 0 {
		s.epoch = 1 // lazy init: a zeroed slot must never look live
	}
	if s.inlineWords == 0 {
		s.inlineWords = 1 // tolerate a zero-value set in tests
		s.words = 1
	}
	if s.count*4 >= len(s.slots)*3 {
		s.grow()
	}
	prefix := binary.LittleEndian.Uint64(id[:8])
	mask := uint64(len(s.slots) - 1)
	for i := prefix & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			// First sighting of this message this round: claim the slot
			// and zero its inline delivery words before recording node.
			sl.prefix = prefix
			sl.epoch = s.epoch
			sl.id = *id
			sl.ext = 0
			s.count++
			w := s.bits[int(i)*s.inlineWords : (int(i)+1)*s.inlineWords]
			for j := range w {
				w[j] = 0
			}
			if node>>6 >= s.inlineWords {
				return s.markOverflow(sl, node)
			}
			w[node>>6] = 1 << (uint(node) & 63)
			return true
		}
		if sl.prefix == prefix && sl.id == *id {
			if node>>6 >= s.inlineWords {
				return s.markOverflow(sl, node)
			}
			w := &s.bits[int(i)*s.inlineWords+node>>6]
			bit := uint64(1) << (uint(node) & 63)
			if *w&bit != 0 {
				return false
			}
			*w |= bit
			return true
		}
	}
}

// find returns the slot recording id this epoch, or -1 when no node has
// received it. It is read-only: it never claims a slot or grows the
// table, so a slot it returns stays valid until the next mark.
func (s *deliveredSet) find(id *[32]byte) int {
	if len(s.slots) == 0 {
		return -1
	}
	prefix := binary.LittleEndian.Uint64(id[:8])
	mask := uint64(len(s.slots) - 1)
	for i := prefix & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			return -1
		}
		if sl.prefix == prefix && sl.id == *id {
			return int(i)
		}
	}
}

// has reports whether node already received the message in slot, a
// result of find (-1 holds nothing).
func (s *deliveredSet) has(slot, node int) bool {
	if slot < 0 {
		return false
	}
	if node>>6 < s.inlineWords {
		return s.bits[slot*s.inlineWords+node>>6]&(1<<(uint(node)&63)) != 0
	}
	return s.hasOverflow(&s.slots[slot], node)
}

// hasOverflow reports whether a node beyond the inline window already
// received the message in sl.
func (s *deliveredSet) hasOverflow(sl *deliveredSlot, node int) bool {
	if sl.ext == 0 {
		return false
	}
	e := &s.exts[sl.ext-1]
	if e.promoted {
		off := node - s.inlineWords*64
		return e.bits[off>>6]&(1<<(uint(off)&63)) != 0
	}
	for _, id := range e.list {
		if int(id) == node {
			return true
		}
	}
	return false
}

// markOverflow records a delivery to a node beyond the inline window,
// claiming this slot's extension on first use.
func (s *deliveredSet) markOverflow(sl *deliveredSlot, node int) bool {
	if s.hasOverflow(sl, node) {
		return false
	}
	if sl.ext == 0 {
		if s.extLive == len(s.exts) {
			s.exts = append(s.exts, deliveredExt{})
		}
		s.extLive++
		sl.ext = int32(s.extLive)
		e := &s.exts[s.extLive-1]
		e.list = append(e.list[:0], int32(node))
		e.promoted = false
		return true
	}
	e := &s.exts[sl.ext-1]
	off := node - s.inlineWords*64
	if e.promoted {
		e.bits[off>>6] |= 1 << (uint(off) & 63)
		return true
	}
	if len(e.list) < deliveredOverflowCap {
		e.list = append(e.list, int32(node))
		return true
	}
	// The compact list saturated: promote to the dense bitmap covering
	// the overflow range and replay the list into it.
	need := s.words - s.inlineWords
	if cap(e.bits) < need {
		e.bits = make([]uint64, need)
	} else {
		e.bits = e.bits[:need]
		for j := range e.bits {
			e.bits[j] = 0
		}
	}
	base := s.inlineWords * 64
	for _, id := range e.list {
		o := int(id) - base
		e.bits[o>>6] |= 1 << (uint(o) & 63)
	}
	e.bits[off>>6] |= 1 << (uint(off) & 63)
	e.promoted = true
	return true
}

// grow doubles the table (allocating the initial table on first use),
// re-inserting the live epoch's slots and moving their inline bit words;
// extension indices stay valid because the pool is table-independent.
// Stale entries are dropped.
func (s *deliveredSet) grow() {
	if s.words == 0 {
		s.words = 1 // tolerate a zero-value set in tests
		s.inlineWords = 1
	}
	n := len(s.slots) * 2
	if n == 0 {
		n = deliveredMinSlots
	}
	oldSlots := s.slots
	oldBits := s.bits
	s.slots = make([]deliveredSlot, n)
	s.bits = make([]uint64, n*s.inlineWords)
	mask := uint64(n - 1)
	for i := range oldSlots {
		sl := &oldSlots[i]
		if sl.epoch != s.epoch {
			continue
		}
		j := sl.prefix & mask
		for s.slots[j].epoch == s.epoch {
			j = (j + 1) & mask
		}
		s.slots[j] = *sl
		copy(s.bits[int(j)*s.inlineWords:(int(j)+1)*s.inlineWords],
			oldBits[i*s.inlineWords:(i+1)*s.inlineWords])
	}
}
