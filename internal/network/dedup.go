package network

import "encoding/binary"

// dedupSet is the per-node gossip de-duplication set: an open-addressed
// hash set of 32-byte message IDs probed on a cheap 8-byte prefix, with
// epoch-stamped slots so that the per-round reset is a counter bump
// instead of a table clear.
//
// Message IDs are SHA-256 outputs, so their first 8 bytes are already a
// uniformly distributed hash — probing compares one word per slot instead
// of hashing and comparing the full 32-byte key the way a
// map[[32]byte]struct{} must, and only a prefix hit (almost always a true
// duplicate) pays the full-ID confirm. Slots stamped with an older epoch
// are free: ResetSeen retires a whole round's population in O(nodes).
type dedupSet struct {
	slots []dedupSlot
	// count is the number of live (current-epoch) slots.
	count int
	// epoch identifies the current round's population; slots from other
	// epochs are treated as empty. Starts at 1 — a zeroed slot is never
	// live.
	epoch uint32
}

type dedupSlot struct {
	// prefix is the ID's first 8 bytes: probe key and hash in one.
	prefix uint64
	epoch  uint32
	// id is the full message ID, compared only on a prefix hit.
	id [32]byte
}

// dedupMinSlots is the initial table size; steady-state rounds re-use the
// grown table, so this only matters for the first round's growth path.
const dedupMinSlots = 64

// reset retires every entry by bumping the epoch. The table memory is
// retained so steady-state rounds insert into an already-sized table.
func (s *dedupSet) reset() {
	s.epoch++
	s.count = 0
	if s.epoch == 0 {
		// uint32 wrap (once per 4 billion rounds): stale slots could now
		// alias the restarted epoch sequence, so clear them for real.
		for i := range s.slots {
			s.slots[i] = dedupSlot{}
		}
		s.epoch = 1
	}
}

// insert adds id to the set, reporting whether it was absent (true = first
// sighting, false = duplicate).
func (s *dedupSet) insert(id *[32]byte) bool {
	if s.epoch == 0 {
		s.epoch = 1 // lazy init: a zeroed slot must never look live
	}
	if s.count*4 >= len(s.slots)*3 {
		s.grow()
	}
	prefix := binary.LittleEndian.Uint64(id[:8])
	mask := uint64(len(s.slots) - 1)
	for i := prefix & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			sl.prefix = prefix
			sl.epoch = s.epoch
			sl.id = *id
			s.count++
			return true
		}
		if sl.prefix == prefix && sl.id == *id {
			return false
		}
	}
}

// contains reports whether id is in the set, without inserting it.
func (s *dedupSet) contains(id *[32]byte) bool {
	if len(s.slots) == 0 {
		return false
	}
	prefix := binary.LittleEndian.Uint64(id[:8])
	mask := uint64(len(s.slots) - 1)
	for i := prefix & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			return false
		}
		if sl.prefix == prefix && sl.id == *id {
			return true
		}
	}
}

// grow doubles the table (allocating the initial table on first use) and
// re-inserts the live epoch's entries; stale entries are dropped.
func (s *dedupSet) grow() {
	n := len(s.slots) * 2
	if n == 0 {
		n = dedupMinSlots
	}
	old := s.slots
	s.slots = make([]dedupSlot, n)
	mask := uint64(n - 1)
	for i := range old {
		sl := &old[i]
		if sl.epoch != s.epoch {
			continue
		}
		j := sl.prefix & mask
		for s.slots[j].epoch == s.epoch {
			j = (j + 1) & mask
		}
		s.slots[j] = *sl
	}
}
