package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file holds the mergeable streaming accumulators the grid's
// memory-bounded summary sink folds rows into (see
// experiments.SummarySink): an exact-moment accumulator and a
// deterministic KLL-style quantile sketch. Both are plain exported
// structs so a grid checkpoint can serialise per-cell summaries as JSON
// and a resumed run can merge them with freshly computed ones; both are
// deterministic functions of their observation sequence (no randomness,
// no clocks), which is what keeps streamed summaries reproducible under
// the run pool's fixed fold order.

// Moments is a mergeable first/second-moment accumulator: mean,
// variance and normal-approximation confidence intervals without
// retaining observations. Merging two accumulators sums their counters,
// so a split computation reaches the same statistics as a single pass
// up to float addition order (counts are exact).
type Moments struct {
	N     uint64  `json:"n"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sum_sq"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Observe folds one value in.
func (m *Moments) Observe(x float64) {
	if m.N == 0 || x < m.Min {
		m.Min = x
	}
	if m.N == 0 || x > m.Max {
		m.Max = x
	}
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// Merge folds another accumulator in.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 || o.Min < m.Min {
		m.Min = o.Min
	}
	if m.N == 0 || o.Max > m.Max {
		m.Max = o.Max
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the running mean (0 when empty).
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance via the sum-of-squares
// identity. The grid folds outcome fractions in [0,1], where the
// cancellation this formulation risks on huge-magnitude data is
// immaterial; it is what makes the accumulator mergeable.
func (m Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq/float64(m.N) - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CI95 returns the normal-approximation 95% confidence half-width of
// the mean (matching MeanCI's z=1.96 convention).
func (m Moments) CI95() float64 {
	if m.N < 2 {
		return 0
	}
	return 1.96 * m.StdDev() / math.Sqrt(float64(m.N))
}

// ErrEmptySketch is returned when a quantile is requested from a sketch
// that has observed nothing.
var ErrEmptySketch = errors.New("stats: empty sketch")

// DefaultSketchK is the compaction buffer width used when a sketch is
// built with k <= 0; at this width the observed rank error stays well
// under 1% over the data sizes the grids produce.
const DefaultSketchK = 256

// QuantileSketch is a deterministic KLL-style mergeable quantile
// sketch: approximate percentiles over a stream without retaining it.
// Items live in levels where level i carries weight 2^i; when a level
// overflows its k-item buffer it is sorted and every other item is
// promoted to the level above, alternating the surviving parity per
// level so compaction error cancels instead of accumulating. Unlike
// textbook KLL the surviving parity is a deterministic counter, not a
// coin flip, so the sketch is a pure function of its observation
// sequence — the property the stream-summary determinism tests pin.
//
// Count, Min and Max are tracked exactly; Quantile(0) and Quantile(1)
// are always exact. Interior quantiles carry rank error O(log(n/k)/k).
type QuantileSketch struct {
	K           int         `json:"k"`
	Count       uint64      `json:"count"`
	Min         float64     `json:"min"`
	Max         float64     `json:"max"`
	Levels      [][]float64 `json:"levels"`
	Compactions []uint64    `json:"compactions"`
}

// NewQuantileSketch builds a sketch with the given buffer width
// (k <= 0 selects DefaultSketchK).
func NewQuantileSketch(k int) *QuantileSketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	if k < 8 {
		k = 8
	}
	return &QuantileSketch{K: k}
}

func (s *QuantileSketch) ensureLevel(lvl int) {
	for len(s.Levels) <= lvl {
		s.Levels = append(s.Levels, nil)
	}
	for len(s.Compactions) <= lvl {
		s.Compactions = append(s.Compactions, 0)
	}
}

// Observe folds one value in.
func (s *QuantileSketch) Observe(x float64) {
	if s.K <= 0 {
		s.K = DefaultSketchK
	}
	if s.Count == 0 || x < s.Min {
		s.Min = x
	}
	if s.Count == 0 || x > s.Max {
		s.Max = x
	}
	s.Count++
	s.ensureLevel(0)
	s.Levels[0] = append(s.Levels[0], x)
	s.compact()
}

// compact cascades overflowing levels upward. Promotion halves the item
// count at double the weight, so the total weight is conserved up to
// the odd leftover item each compaction may shed — the sketch's rank
// error, bounded by the per-level buffer width.
func (s *QuantileSketch) compact() {
	for lvl := 0; lvl < len(s.Levels); lvl++ {
		if len(s.Levels[lvl]) <= s.K {
			continue
		}
		buf := s.Levels[lvl]
		sort.Float64s(buf)
		offset := int(s.Compactions[lvl] & 1)
		s.Compactions[lvl]++
		s.ensureLevel(lvl + 1)
		for i := offset; i < len(buf); i += 2 {
			s.Levels[lvl+1] = append(s.Levels[lvl+1], buf[i])
		}
		s.Levels[lvl] = buf[:0]
	}
}

// Merge folds another sketch in. Both sketches must share the same
// buffer width k.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.Count == 0 {
		return nil
	}
	if s.K <= 0 {
		s.K = o.K
	}
	if s.K != o.K {
		return fmt.Errorf("stats: merging sketches with k=%d and k=%d", s.K, o.K)
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	for lvl, items := range o.Levels {
		if len(items) == 0 {
			continue
		}
		s.ensureLevel(lvl)
		s.Levels[lvl] = append(s.Levels[lvl], items...)
	}
	s.compact()
	return nil
}

// weighted is one surviving sketch item with its level weight.
type weightedItem struct {
	v float64
	w uint64
}

// items returns every surviving item value-sorted with its weight.
func (s *QuantileSketch) items() ([]weightedItem, uint64) {
	var out []weightedItem
	var total uint64
	for lvl, buf := range s.Levels {
		w := uint64(1) << uint(lvl)
		for _, v := range buf {
			out = append(out, weightedItem{v: v, w: w})
			total += w
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out, total
}

// Quantile returns the approximate q-quantile for q in [0, 1].
// Quantile(0) and Quantile(1) return the exact min and max.
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if s.Count == 0 {
		return 0, ErrEmptySketch
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	if q == 0 {
		return s.Min, nil
	}
	if q == 1 {
		return s.Max, nil
	}
	items, total := s.items()
	if total == 0 {
		// Every observation was compacted away to an odd leftover; the
		// exact extrema are all that remain.
		return s.Min, nil
	}
	target := q * float64(total)
	var cum float64
	for _, it := range items {
		cum += float64(it.w)
		if cum >= target {
			v := it.v
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v, nil
		}
	}
	return s.Max, nil
}

// RetainedItems reports how many values the sketch currently stores
// across all levels — the memory-bound the streaming sink tests assert.
func (s *QuantileSketch) RetainedItems() int {
	n := 0
	for _, buf := range s.Levels {
		n += len(buf)
	}
	return n
}
