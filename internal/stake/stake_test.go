package stake

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestUniformSampleRange(t *testing.T) {
	d := Uniform{A: 1, B: 200}
	rng := testRNG()
	for i := 0; i < 10_000; i++ {
		s := d.Sample(rng)
		if s < 1 || s > 200 {
			t.Fatalf("U(1,200) sample %v out of range", s)
		}
	}
}

func TestUniformIntSampleRange(t *testing.T) {
	d := UniformInt{A: 1, B: 50}
	rng := testRNG()
	seen := make(map[float64]bool)
	for i := 0; i < 20_000; i++ {
		s := d.Sample(rng)
		if s < 1 || s > 50 || s != math.Trunc(s) {
			t.Fatalf("U{1..50} sample %v invalid", s)
		}
		seen[s] = true
	}
	if len(seen) != 50 {
		t.Errorf("U{1..50} hit %d distinct values, want 50", len(seen))
	}
}

func TestUniformIntDegenerate(t *testing.T) {
	d := UniformInt{A: 7, B: 7}
	if s := d.Sample(testRNG()); s != 7 {
		t.Errorf("degenerate UniformInt sample = %v, want 7", s)
	}
}

func TestNormalClampsAtMinStake(t *testing.T) {
	d := Normal{Mu: 1, Sigma: 100}
	rng := testRNG()
	for i := 0; i < 10_000; i++ {
		if s := d.Sample(rng); s < MinStake {
			t.Fatalf("normal sample %v below MinStake", s)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: 2000, Sigma: 25}
	rng := testRNG()
	n := 50_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := sum / float64(n)
	if math.Abs(mean-2000) > 2 {
		t.Errorf("N(2000,25) sample mean = %v", mean)
	}
}

func TestParetoTail(t *testing.T) {
	d := Pareto{Xm: 10, Alpha: 2}
	rng := testRNG()
	for i := 0; i < 10_000; i++ {
		if s := d.Sample(rng); s < 10 {
			t.Fatalf("Pareto sample %v below scale", s)
		}
	}
}

func TestConstant(t *testing.T) {
	if s := (Constant{Value: 5}).Sample(nil); s != 5 {
		t.Errorf("Constant sample = %v", s)
	}
	if s := (Constant{Value: -3}).Sample(nil); s != MinStake {
		t.Errorf("Constant clamps to MinStake, got %v", s)
	}
}

func TestDistributionNames(t *testing.T) {
	tests := []struct {
		d    Distribution
		want string
	}{
		{Uniform{A: 1, B: 200}, "U(1,200)"},
		{UniformInt{A: 1, B: 50}, "U{1..50}"},
		{Normal{Mu: 100, Sigma: 20}, "N(100,20)"},
		{Pareto{Xm: 10, Alpha: 2}, "Pareto(10,2)"},
		{Constant{Value: 5}, "Const(5)"},
	}
	for _, tt := range tests {
		if got := tt.d.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestSamplePopulation(t *testing.T) {
	pop, err := SamplePopulation(Uniform{A: 1, B: 10}, 1000, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if pop.N() != 1000 {
		t.Errorf("N = %d", pop.N())
	}
	if pop.Min() < 1 || pop.Max() > 10 {
		t.Errorf("population out of range: [%v, %v]", pop.Min(), pop.Max())
	}
	if _, err := SamplePopulation(Uniform{A: 1, B: 10}, 0, testRNG()); err == nil {
		t.Error("expected error for empty population")
	}
}

func TestScaledPopulation(t *testing.T) {
	pop, err := ScaledPopulation(Uniform{A: 1, B: 200}, 5000, 50e6, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pop.Total()-50e6) > 1 {
		t.Errorf("scaled total = %v, want 50e6", pop.Total())
	}
	if _, err := ScaledPopulation(Uniform{A: 1, B: 2}, 10, -1, testRNG()); err == nil {
		t.Error("expected error for negative total")
	}
}

func TestPopulationMinMaxEmpty(t *testing.T) {
	p := &Population{}
	if p.Min() != 0 || p.Max() != 0 || p.Total() != 0 {
		t.Error("empty population aggregates should be zero")
	}
}

func TestMinAbove(t *testing.T) {
	p := &Population{Stakes: []float64{1, 5, 9, 3}}
	tests := []struct {
		floor, want float64
	}{
		{0, 1}, {2, 3}, {5, 5}, {9.5, 0},
	}
	for _, tt := range tests {
		if got := p.MinAbove(tt.floor); got != tt.want {
			t.Errorf("MinAbove(%v) = %v, want %v", tt.floor, got, tt.want)
		}
	}
}

func TestRemoveBelow(t *testing.T) {
	p := &Population{Stakes: []float64{1, 2, 3, 4, 5}}
	q := p.RemoveBelow(3)
	if q.N() != 3 || q.Min() != 3 {
		t.Errorf("RemoveBelow: N=%d Min=%v", q.N(), q.Min())
	}
	if p.N() != 5 {
		t.Error("RemoveBelow mutated the receiver")
	}
}

func TestTransfer(t *testing.T) {
	p := &Population{Stakes: []float64{10, 20}}
	if moved := p.Transfer(0, 1, 4); moved != 4 {
		t.Errorf("Transfer moved %v, want 4", moved)
	}
	if p.Stakes[0] != 6 || p.Stakes[1] != 24 {
		t.Errorf("stakes after transfer: %v", p.Stakes)
	}
	// Saturates at sender balance.
	if moved := p.Transfer(0, 1, 100); moved != 6 {
		t.Errorf("saturating transfer moved %v, want 6", moved)
	}
	// Invalid transfers move nothing.
	for _, tc := range []struct {
		i, j int
		amt  float64
	}{
		{0, 0, 5}, {-1, 1, 5}, {0, 9, 5}, {0, 1, -5},
	} {
		if moved := p.Transfer(tc.i, tc.j, tc.amt); moved != 0 {
			t.Errorf("Transfer(%d,%d,%v) moved %v, want 0", tc.i, tc.j, tc.amt, moved)
		}
	}
}

func TestTransferConservesTotal(t *testing.T) {
	p := &Population{Stakes: []float64{10, 20, 30}}
	before := p.Total()
	rng := testRNG()
	for i := 0; i < 1000; i++ {
		p.Transfer(rng.Intn(3), rng.Intn(3), rng.Float64()*10)
	}
	if math.Abs(p.Total()-before) > 1e-9 {
		t.Errorf("total drifted: %v -> %v", before, p.Total())
	}
}

func TestClone(t *testing.T) {
	p := &Population{Stakes: []float64{1, 2}}
	q := p.Clone()
	q.Stakes[0] = 99
	if p.Stakes[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

// Property: RemoveBelow(w) keeps exactly the stakes >= w and never
// increases the total.
func TestRemoveBelowProperty(t *testing.T) {
	f := func(raw []float64, wRaw float64) bool {
		stakes := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				stakes = append(stakes, 1+math.Abs(math.Mod(x, 1000)))
			}
		}
		w := 1 + math.Abs(math.Mod(wRaw, 1000))
		p := &Population{Stakes: stakes}
		q := p.RemoveBelow(w)
		for _, s := range q.Stakes {
			if s < w {
				return false
			}
		}
		return q.Total() <= p.Total()+1e-9 && q.N() <= p.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling preserves relative proportions.
func TestScaledPopulationProportionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1, err := SamplePopulation(Uniform{A: 1, B: 100}, 100, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		p2, err := ScaledPopulation(Uniform{A: 1, B: 100}, 100, 12345, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		_ = rng
		ratio := p2.Stakes[0] / p1.Stakes[0]
		for i := range p1.Stakes {
			if math.Abs(p2.Stakes[i]/p1.Stakes[i]-ratio) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
