package network

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func id32(n uint64) [32]byte {
	var id [32]byte
	// Spread bits so prefixes differ; tail bytes make IDs unique even
	// when prefixes collide in dedicated tests.
	binary.LittleEndian.PutUint64(id[:8], n*0x9e3779b97f4a7c15)
	binary.LittleEndian.PutUint64(id[24:], n)
	return id
}

// perNodeSets is the reference model for deliveredSet: one plain map of
// message IDs per node, the layout the inverted bitmap replaced.
type perNodeSets []map[[32]byte]struct{}

func newPerNodeSets(n int) perNodeSets {
	ref := make(perNodeSets, n)
	for i := range ref {
		ref[i] = make(map[[32]byte]struct{})
	}
	return ref
}

// insert records id at node, reporting whether it was absent.
func (r perNodeSets) insert(id *[32]byte, node int) bool {
	if _, dup := r[node][*id]; dup {
		return false
	}
	r[node][*id] = struct{}{}
	return true
}

func (r perNodeSets) contains(id *[32]byte, node int) bool {
	_, ok := r[node][*id]
	return ok
}

func (r perNodeSets) reset() {
	for _, m := range r {
		clear(m)
	}
}

func TestDeliveredFirstAndDuplicate(t *testing.T) {
	var s deliveredSet
	s.init(100)
	for i := uint64(0); i < 50; i++ {
		id := id32(i)
		for node := 0; node < 100; node += 7 {
			if !s.mark(&id, node) {
				t.Fatalf("first delivery of msg %d to node %d reported duplicate", i, node)
			}
			if s.mark(&id, node) {
				t.Fatalf("second delivery of msg %d to node %d reported new", i, node)
			}
		}
	}
}

func TestDeliveredNodesIndependent(t *testing.T) {
	// A delivery to one node must not mark any other node.
	var s deliveredSet
	s.init(128)
	id := id32(1)
	if !s.mark(&id, 63) || !s.mark(&id, 64) || !s.mark(&id, 127) || !s.mark(&id, 0) {
		t.Fatal("independent nodes reported duplicates")
	}
	if s.mark(&id, 63) || s.mark(&id, 0) {
		t.Fatal("duplicates not detected per node")
	}
}

func TestDeliveredPrefixCollision(t *testing.T) {
	var a, b [32]byte
	binary.LittleEndian.PutUint64(a[:8], 0xdeadbeef)
	binary.LittleEndian.PutUint64(b[:8], 0xdeadbeef)
	a[31], b[31] = 1, 2

	var s deliveredSet
	s.init(8)
	if !s.mark(&a, 3) {
		t.Fatal("mark(a) reported duplicate")
	}
	if !s.mark(&b, 3) {
		t.Fatal("mark(b) with colliding prefix but different tail reported duplicate")
	}
	if s.mark(&a, 3) || s.mark(&b, 3) {
		t.Fatal("re-mark after prefix collision lost an entry")
	}
}

func TestDeliveredResetRetiresEntries(t *testing.T) {
	var s deliveredSet
	s.init(16)
	id := id32(7)
	if !s.mark(&id, 5) {
		t.Fatal("fresh set reported duplicate")
	}
	s.reset()
	if !s.mark(&id, 5) {
		t.Fatal("entry survived an epoch reset")
	}
	if s.mark(&id, 5) {
		t.Fatal("duplicate not detected after reset re-mark")
	}
}

func TestDeliveredGrowthPreservesBits(t *testing.T) {
	// Growth must move every live slot's delivery bitset along with it.
	var s deliveredSet
	s.init(200)
	const msgs = 5_000
	for i := uint64(0); i < msgs; i++ {
		id := id32(i)
		node := int(i) % 200
		if !s.mark(&id, node) {
			t.Fatalf("mark %d reported duplicate", i)
		}
	}
	if s.count != msgs {
		t.Fatalf("count = %d, want %d", s.count, msgs)
	}
	for i := uint64(0); i < msgs; i++ {
		id := id32(i)
		node := int(i) % 200
		if s.mark(&id, node) {
			t.Fatalf("delivery bit %d lost during growth", i)
		}
		other := (node + 1) % 200
		if !s.mark(&id, other) {
			t.Fatalf("unrelated node bit set for msg %d", i)
		}
	}
}

func TestDeliveredManyEpochsReuseTable(t *testing.T) {
	var s deliveredSet
	s.init(64)
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < 500; i++ {
			id := id32(i)
			if !s.mark(&id, int(i)%64) {
				t.Fatalf("round %d: stale duplicate for id %d", round, i)
			}
		}
		size := len(s.slots)
		s.reset()
		if len(s.slots) != size {
			t.Fatalf("round %d: reset changed table size %d -> %d", round, size, len(s.slots))
		}
	}
}

func TestDeliveredEpochWraparound(t *testing.T) {
	var s deliveredSet
	s.init(8)
	id := id32(1)
	s.mark(&id, 1)
	s.epoch = math.MaxUint32
	other := id32(2)
	if !s.mark(&other, 1) {
		t.Fatal("mark at max epoch reported duplicate")
	}
	s.reset() // wraps: must clear stale slots rather than alias epoch 0/1
	if s.epoch == 0 {
		t.Fatal("epoch 0 must never be live")
	}
	if !s.mark(&other, 1) {
		t.Fatal("entry from pre-wrap epoch survived the wraparound reset")
	}
}

func TestDeliveredAdversarialSequentialPrefixes(t *testing.T) {
	// Non-hashed, clustered prefixes (0,1,2,...) must still resolve via
	// linear probing — slower, never wrong.
	var s deliveredSet
	s.init(8)
	for i := uint64(0); i < 2000; i++ {
		var id [32]byte
		binary.LittleEndian.PutUint64(id[:8], i)
		if !s.mark(&id, 3) {
			t.Fatalf("sequential prefix %d reported duplicate", i)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		var id [32]byte
		binary.LittleEndian.PutUint64(id[:8], i)
		if s.mark(&id, 3) {
			t.Fatalf("sequential prefix %d lost", i)
		}
	}
}

// TestDeliveredMatchesPerNodeSets is the differential oracle: the
// inverted per-message bitmap must agree with per-node sets on every
// (message, node) first-vs-duplicate verdict, across randomized
// mark/reset mixes.
func TestDeliveredMatchesPerNodeSets(t *testing.T) {
	const nodes = 70 // straddles one uint64 word boundary
	for seed := 0; seed < 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var s deliveredSet
			s.init(nodes)
			ref := newPerNodeSets(nodes)
			state := uint64(seed)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			for op := 0; op < 30_000; op++ {
				switch next() % 100 {
				case 0: // occasional epoch reset
					s.reset()
					ref.reset()
				case 1, 2, 3, 4, 5: // membership query: one find, several nodes
					id := id32(next() % 2000)
					slot := s.find(&id)
					for k := 0; k < 5; k++ {
						node := int(next() % nodes)
						if got, want := s.has(slot, node), ref.contains(&id, node); got != want {
							t.Fatalf("op %d: has(msg, node %d) = %v, per-node oracle says %v", op, node, got, want)
						}
					}
				default:
					id := id32(next() % 2000) // small key space forces duplicates
					node := int(next() % nodes)
					want := ref.insert(&id, node)
					if got := s.mark(&id, node); got != want {
						t.Fatalf("op %d: mark(msg, node %d) = %v, per-node oracle says %v", op, node, got, want)
					}
				}
			}
		})
	}
}
