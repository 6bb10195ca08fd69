package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randomData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = rng.Float64()
		case 1:
			out[i] = rng.NormFloat64() * 10
		default:
			out[i] = rng.ExpFloat64()
		}
	}
	return out
}

func TestMomentsMatchesExactStats(t *testing.T) {
	data := randomData(5000, 1)
	var m Moments
	for _, v := range data {
		m.Observe(v)
	}
	wantMean, _ := Mean(data)
	if math.Abs(m.Mean()-wantMean) > 1e-9*math.Abs(wantMean) {
		t.Fatalf("mean %v, want %v", m.Mean(), wantMean)
	}
	_, wantCI, _ := MeanCI(data, 1.96)
	if math.Abs(m.CI95()-wantCI) > 1e-6*wantCI {
		t.Fatalf("ci95 %v, want %v", m.CI95(), wantCI)
	}
	mn, _ := Min(data)
	mx, _ := Max(data)
	if m.Min != mn || m.Max != mx {
		t.Fatalf("min/max %v/%v, want %v/%v", m.Min, m.Max, mn, mx)
	}
}

// TestMomentsMergeProperties pins commutativity and associativity of
// Merge: counts and extrema exactly, sums to float tolerance.
func TestMomentsMergeProperties(t *testing.T) {
	data := randomData(3000, 2)
	chunk := func(lo, hi int) Moments {
		var m Moments
		for _, v := range data[lo:hi] {
			m.Observe(v)
		}
		return m
	}
	a, b, c := chunk(0, 1000), chunk(1000, 1700), chunk(1700, 3000)

	merge := func(ms ...Moments) Moments {
		var out Moments
		for _, m := range ms {
			out.Merge(m)
		}
		return out
	}
	ab := merge(a, b)
	ba := merge(b, a)
	abc := merge(a, b, c)
	cba := merge(c, b, a)
	var bc Moments
	bc.Merge(b)
	bc.Merge(c)
	var aBC Moments
	aBC.Merge(a)
	aBC.Merge(bc)

	close := func(name string, x, y Moments) {
		t.Helper()
		if x.N != y.N || x.Min != y.Min || x.Max != y.Max {
			t.Fatalf("%s: exact fields differ: %+v vs %+v", name, x, y)
		}
		if math.Abs(x.Sum-y.Sum) > 1e-9*math.Abs(x.Sum)+1e-12 {
			t.Fatalf("%s: sums differ: %v vs %v", name, x.Sum, y.Sum)
		}
		if math.Abs(x.SumSq-y.SumSq) > 1e-9*math.Abs(x.SumSq)+1e-12 {
			t.Fatalf("%s: sumsq differ: %v vs %v", name, x.SumSq, y.SumSq)
		}
	}
	close("commutativity", ab, ba)
	close("associativity", abc, aBC)
	close("reversal", abc, cba)
}

// rankOf returns how many values in sorted data are <= x.
func rankOf(sorted []float64, x float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
}

// checkQuantiles asserts the sketch's estimates land within tol·n ranks
// of the exact quantiles of data.
func checkQuantiles(t *testing.T, s *QuantileSketch, data []float64, tol float64) {
	t.Helper()
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := float64(len(data))
	if s.Count != uint64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count, len(data))
	}
	if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
		t.Fatalf("min/max %v/%v, want %v/%v", s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", q, err)
		}
		gotRank := float64(rankOf(sorted, est))
		if math.Abs(gotRank-q*n) > tol*n+1 {
			t.Fatalf("Quantile(%v) = %v has rank %v, want within %v of %v",
				q, est, gotRank, tol*n, q*n)
		}
	}
}

func TestQuantileSketchRankError(t *testing.T) {
	for _, n := range []int{10, 100, 5000, 200000} {
		data := randomData(n, int64(n))
		s := NewQuantileSketch(0)
		for _, v := range data {
			s.Observe(v)
		}
		// Theoretical rank error is O(log(n/k)/k); 2.5% is ~3x the
		// worst observed over these deterministic datasets.
		checkQuantiles(t, s, data, 0.025)
	}
}

// TestQuantileSketchDeterministic pins that the sketch is a pure
// function of its observation sequence: identical sequences produce
// deeply-equal internal state, the property the stream summary's byte
// identity rests on.
func TestQuantileSketchDeterministic(t *testing.T) {
	data := randomData(20000, 7)
	a, b := NewQuantileSketch(64), NewQuantileSketch(64)
	for _, v := range data {
		a.Observe(v)
	}
	for _, v := range data {
		b.Observe(v)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical observation sequences produced different sketch state")
	}
}

// TestQuantileSketchMergeProperties checks merged sketches — in any
// grouping or order — still satisfy the rank-error bound and keep the
// exact counters exact.
func TestQuantileSketchMergeProperties(t *testing.T) {
	data := randomData(30000, 9)
	chunks := [][]float64{data[:4000], data[4000:15000], data[15000:]}
	build := func(vals []float64) *QuantileSketch {
		s := NewQuantileSketch(128)
		for _, v := range vals {
			s.Observe(v)
		}
		return s
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}}
	for _, order := range orders {
		merged := NewQuantileSketch(128)
		for _, i := range order {
			if err := merged.Merge(build(chunks[i])); err != nil {
				t.Fatal(err)
			}
		}
		checkQuantiles(t, merged, data, 0.04)
	}
	// Nested grouping: a+(b+c).
	bc := build(chunks[1])
	if err := bc.Merge(build(chunks[2])); err != nil {
		t.Fatal(err)
	}
	nested := build(chunks[0])
	if err := nested.Merge(bc); err != nil {
		t.Fatal(err)
	}
	checkQuantiles(t, nested, data, 0.04)

	if err := NewQuantileSketch(32).Merge(build(chunks[0])); err == nil {
		t.Fatal("merging mismatched k succeeded, want error")
	}
}

// TestQuantileSketchJSONRoundTrip pins that a serialised partial
// summary deserialises to an equivalent sketch — the checkpoint
// handoff.
func TestQuantileSketchJSONRoundTrip(t *testing.T) {
	data := randomData(10000, 11)
	s := NewQuantileSketch(64)
	for _, v := range data {
		s.Observe(v)
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		want, _ := s.Quantile(q)
		got, err := back.Quantile(q)
		if err != nil || got != want {
			t.Fatalf("Quantile(%v) after round-trip = %v (%v), want %v", q, got, err, want)
		}
	}
}

func TestQuantileSketchBounded(t *testing.T) {
	s := NewQuantileSketch(64)
	for i := 0; i < 500000; i++ {
		s.Observe(float64(i % 977))
	}
	// Retained items grow with the level count (log n), not n.
	if got := s.RetainedItems(); got > 64*24 {
		t.Fatalf("sketch retains %d items over 500k observations, want O(k log n)", got)
	}
	if s.Count != 500000 {
		t.Fatalf("count %d", s.Count)
	}
}

func TestQuantileSketchEmptyAndErrors(t *testing.T) {
	s := NewQuantileSketch(0)
	if _, err := s.Quantile(0.5); err != ErrEmptySketch {
		t.Fatalf("empty sketch quantile err = %v", err)
	}
	s.Observe(3)
	if _, err := s.Quantile(1.5); err == nil {
		t.Fatal("out-of-range quantile succeeded")
	}
	if v, err := s.Quantile(0.5); err != nil || v != 3 {
		t.Fatalf("single-value quantile = %v, %v", v, err)
	}
}
