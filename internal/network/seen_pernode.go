//go:build network_pernode_dedup

package network

// seenSet under the network_pernode_dedup build tag: the pre-inversion
// per-node open-addressed dedup tables, kept as a differential oracle.
// The whole test suite run under this tag must produce identical results
// to the default delivered-bitmap build — CI pins the golden figure
// outputs on both.
type seenSet struct {
	per []dedupSet
}

// seenRef locates one message's delivery record for holds queries; the
// per-node layout has no shared record, so it is the message ID itself.
type seenRef = *[32]byte

func (s *seenSet) init(n int) { s.per = make([]dedupSet, n) }

// adopt re-initialises a recycled set for a population of n: per-node
// tables are kept (entries retired in place) when the population size
// matches, rebuilt otherwise.
func (s *seenSet) adopt(n int) {
	if len(s.per) != n {
		s.init(n)
		return
	}
	s.reset()
}

func (s *seenSet) reset() {
	for i := range s.per {
		s.per[i].reset()
	}
}

func (s *seenSet) mark(id *[32]byte, node int) bool { return s.per[node].insert(id) }
func (s *seenSet) lookup(id *[32]byte) seenRef      { return id }
func (s *seenSet) holds(id seenRef, node int) bool  { return s.per[node].contains(id) }
