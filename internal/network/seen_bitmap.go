//go:build !network_pernode_dedup

package network

// seenSet is the gossip de-duplication tracker the Network uses. The
// default build routes it to the per-message delivered-bitmap layout;
// building with -tags network_pernode_dedup swaps in the older per-node
// open-addressed tables as a differential oracle (see seen_pernode.go).
type seenSet struct {
	d deliveredSet
}

// seenRef locates one message's delivery record for holds queries: the
// message's slot, found once per push and then tested per peer.
type seenRef = int

func (s *seenSet) init(n int)                       { s.d.init(n) }
func (s *seenSet) adopt(n int)                      { s.d.adopt(n) }
func (s *seenSet) reset()                           { s.d.reset() }
func (s *seenSet) mark(id *[32]byte, node int) bool { return s.d.mark(id, node) }
func (s *seenSet) lookup(id *[32]byte) seenRef      { return s.d.find(id) }
func (s *seenSet) holds(ref seenRef, node int) bool { return s.d.has(ref, node) }
