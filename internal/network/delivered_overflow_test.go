package network

import (
	"fmt"
	"testing"
)

// TestDeliveredInlineGeometryCapped pins the memory contract: beyond 512
// nodes the per-slot inline bitmap stops growing and deliveries to high
// node IDs ride the overflow path.
func TestDeliveredInlineGeometryCapped(t *testing.T) {
	var s deliveredSet
	s.init(4096)
	if s.inlineWords != deliveredMaxInlineWords {
		t.Fatalf("inlineWords = %d, want cap %d", s.inlineWords, deliveredMaxInlineWords)
	}
	if s.words != 64 {
		t.Fatalf("words = %d, want 64", s.words)
	}
	id := id32(1)
	if !s.mark(&id, 100) || !s.mark(&id, 600) || !s.mark(&id, 4095) {
		t.Fatal("first deliveries reported duplicate")
	}
	if s.mark(&id, 100) || s.mark(&id, 600) || s.mark(&id, 4095) {
		t.Fatal("duplicates not detected across the inline/overflow split")
	}
	if len(s.bits) != len(s.slots)*deliveredMaxInlineWords {
		t.Fatalf("inline bits = %d words for %d slots; per-slot cap leaked", len(s.bits), len(s.slots))
	}
}

// TestDeliveredOverflowPromotion drives one message through the compact
// list into the promoted bitmap and checks every verdict on the way.
func TestDeliveredOverflowPromotion(t *testing.T) {
	var s deliveredSet
	s.init(600) // 10 words total, 8 inline
	id := id32(7)
	base := deliveredMaxInlineWords * 64
	// Fill the compact list past its cap; every delivery is a first.
	for k := 0; k < deliveredOverflowCap+10; k++ {
		node := base + k*2 // stay within 600
		if node >= 600 {
			break
		}
		if !s.mark(&id, node) {
			t.Fatalf("first overflow delivery to node %d reported duplicate", node)
		}
	}
	// Everything recorded pre- and post-promotion must still read as
	// duplicate, including entries replayed from the list into the bitmap.
	for k := 0; k < deliveredOverflowCap+10; k++ {
		node := base + k*2
		if node >= 600 {
			break
		}
		if s.mark(&id, node) {
			t.Fatalf("overflow delivery to node %d lost across promotion", node)
		}
	}
	// Never-delivered high nodes still read as fresh.
	if !s.mark(&id, base+1) || !s.mark(&id, 599) {
		t.Fatal("unrelated overflow nodes reported duplicate")
	}
}

// TestDeliveredOverflowEpochRecycling reuses extension pool entries
// across many rounds: stale lists and promoted bitmaps from earlier
// epochs must never leak verdicts into the current one.
func TestDeliveredOverflowEpochRecycling(t *testing.T) {
	var s deliveredSet
	s.init(700)
	base := deliveredMaxInlineWords * 64
	for round := 0; round < 30; round++ {
		for m := uint64(0); m < 40; m++ {
			id := id32(m)
			for k := 0; k < deliveredOverflowCap+4; k++ {
				node := base + (k+int(m))%(700-base)
				first := s.mark(&id, node)
				dup := s.mark(&id, node)
				if !first {
					t.Fatalf("round %d msg %d node %d: stale overflow verdict", round, m, node)
				}
				if dup {
					t.Fatalf("round %d msg %d node %d: duplicate undetected", round, m, node)
				}
			}
		}
		s.reset()
	}
}

// TestDeliveredGrowthKeepsOverflow checks that table growth preserves
// extension state: ext indices point into the pool, not the table.
func TestDeliveredGrowthKeepsOverflow(t *testing.T) {
	var s deliveredSet
	s.init(640)
	base := deliveredMaxInlineWords * 64
	const msgs = 2_000 // forces several grows
	for m := uint64(0); m < msgs; m++ {
		id := id32(m)
		if !s.mark(&id, base+int(m)%(640-base)) {
			t.Fatalf("msg %d first overflow delivery reported duplicate", m)
		}
		if !s.mark(&id, int(m)%base) {
			t.Fatalf("msg %d inline delivery reported duplicate", m)
		}
	}
	for m := uint64(0); m < msgs; m++ {
		id := id32(m)
		if s.mark(&id, base+int(m)%(640-base)) {
			t.Fatalf("msg %d overflow bit lost during growth", m)
		}
		if s.mark(&id, int(m)%base) {
			t.Fatalf("msg %d inline bit lost during growth", m)
		}
	}
}

// TestDeliveredMatchesPerNodeSetsLarge is the differential oracle at
// node counts past the inline cap: compact lists, promotions, and the
// inline window must agree with per-node sets on every
// (message, node) verdict. Node choice is biased towards the overflow
// range so promotions actually happen.
func TestDeliveredMatchesPerNodeSetsLarge(t *testing.T) {
	for _, nodes := range []int{600, 2100} {
		nodes := nodes
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			for seed := 0; seed < 3; seed++ {
				var s deliveredSet
				s.init(nodes)
				ref := newPerNodeSets(nodes)
				state := uint64(seed)*0x9e3779b97f4a7c15 + uint64(nodes) + 1
				next := func() uint64 {
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					return state
				}
				base := deliveredMaxInlineWords * 64
				for op := 0; op < 60_000; op++ {
					switch next() % 200 {
					case 0: // occasional epoch reset
						s.reset()
						ref.reset()
					case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10: // membership query across the inline/overflow split
						id := id32(next() % 300)
						slot := s.find(&id)
						for k := 0; k < 5; k++ {
							node := base + int(next()%uint64(nodes-base))
							if k == 0 {
								node = int(next() % uint64(base))
							}
							if got, want := s.has(slot, node), ref.contains(&id, node); got != want {
								t.Fatalf("seed %d op %d: has(msg, node %d) = %v, per-node oracle says %v", seed, op, node, got, want)
							}
						}
					default:
						id := id32(next() % 300) // few messages: dense per-message fan drives promotion
						node := int(next()) % nodes
						if node < 0 {
							node = -node % nodes
						}
						if next()%4 != 0 { // bias into the overflow range
							node = base + int(next()%uint64(nodes-base))
						}
						want := ref.insert(&id, node)
						if got := s.mark(&id, node); got != want {
							t.Fatalf("seed %d op %d: mark(msg, node %d) = %v, per-node oracle says %v", seed, op, node, got, want)
						}
					}
				}
			}
		})
	}
}
