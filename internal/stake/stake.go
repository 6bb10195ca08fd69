// Package stake models stake populations for the Algorand incentive
// analysis. The paper evaluates four stake distributions — U(1,200),
// N(100,20), N(100,10) and N(2000,25) — plus the truncated families
// U_w(1,200) where accounts with stake below w are removed from the
// rewarded set (Fig. 7-c). Stakes are denominated in Algos.
package stake

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// MinStake is the smallest stake any sampled account may hold. Algorand
// accounts need a positive balance to participate in sortition, and the
// paper's distributions all start at 1 Algo.
const MinStake = 1.0

// Distribution samples one account stake. Implementations must be safe for
// sequential reuse with the supplied *rand.Rand (they hold no state).
type Distribution interface {
	// Sample draws a single stake in Algos. Results are >= MinStake.
	Sample(rng *rand.Rand) float64
	// Name identifies the distribution in experiment output, e.g. "U(1,200)".
	Name() string
}

// Uniform is the continuous uniform distribution over [A, B].
type Uniform struct {
	A, B float64
}

var _ Distribution = Uniform{}

// Sample draws from [A, B], clamped to MinStake.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return clampStake(u.A + rng.Float64()*(u.B-u.A))
}

// Name implements Distribution.
func (u Uniform) Name() string { return fmt.Sprintf("U(%g,%g)", u.A, u.B) }

// UniformInt is the discrete uniform distribution over the integers
// {A, A+1, ..., B}. The paper's protocol simulations distribute stakes
// "with a uniform distribution between 1 to 50 Algos".
type UniformInt struct {
	A, B int
}

var _ Distribution = UniformInt{}

// Sample draws an integer stake in [A, B].
func (u UniformInt) Sample(rng *rand.Rand) float64 {
	if u.B <= u.A {
		return clampStake(float64(u.A))
	}
	return clampStake(float64(u.A + rng.Intn(u.B-u.A+1)))
}

// Name implements Distribution.
func (u UniformInt) Name() string { return fmt.Sprintf("U{%d..%d}", u.A, u.B) }

// Normal is the normal distribution N(Mu, Sigma) truncated below at
// MinStake, matching the paper's N(100,20), N(100,10) and N(2000,25)
// populations (stakes cannot be non-positive).
type Normal struct {
	Mu, Sigma float64
}

var _ Distribution = Normal{}

// Sample draws from N(Mu, Sigma) clamped below at MinStake.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return clampStake(n.Mu + n.Sigma*rng.NormFloat64())
}

// Name implements Distribution.
func (n Normal) Name() string { return fmt.Sprintf("N(%g,%g)", n.Mu, n.Sigma) }

// Pareto is a heavy-tailed distribution (scale Xm, shape Alpha) used by the
// extension experiments to model "rich get richer" stake concentration, a
// network condition the paper's conclusion calls out for the Foundation to
// monitor.
type Pareto struct {
	Xm, Alpha float64
}

var _ Distribution = Pareto{}

// Sample draws from Pareto(Xm, Alpha) via inverse-CDF sampling.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return clampStake(p.Xm / math.Pow(u, 1/p.Alpha))
}

// Name implements Distribution.
func (p Pareto) Name() string { return fmt.Sprintf("Pareto(%g,%g)", p.Xm, p.Alpha) }

// Constant assigns every account the same stake; useful in unit tests and
// in the equal-stake ablations.
type Constant struct {
	Value float64
}

var _ Distribution = Constant{}

// Sample returns the constant value.
func (c Constant) Sample(*rand.Rand) float64 { return clampStake(c.Value) }

// Name implements Distribution.
func (c Constant) Name() string { return fmt.Sprintf("Const(%g)", c.Value) }

func clampStake(x float64) float64 {
	if x < MinStake {
		return MinStake
	}
	return x
}

// Population is a concrete assignment of stakes to account indices.
type Population struct {
	Stakes []float64
}

// SamplePopulation draws n account stakes from dist.
func SamplePopulation(dist Distribution, n int, rng *rand.Rand) (*Population, error) {
	if n <= 0 {
		return nil, errors.New("stake: population size must be positive")
	}
	return SamplePopulationInto(dist, make([]float64, n), rng)
}

// SamplePopulationInto draws len(buf) account stakes from dist into buf
// and wraps it — the returned Population aliases buf, so the caller must
// not reuse the buffer while the population is live. Sweep workers use it
// with an arena-recycled vector (protocol.Arena.StakeBuf) to stop
// per-cell population builds from dominating large-population setup. The
// draw sequence is identical to SamplePopulation's.
func SamplePopulationInto(dist Distribution, buf []float64, rng *rand.Rand) (*Population, error) {
	if len(buf) == 0 {
		return nil, errors.New("stake: population size must be positive")
	}
	for i := range buf {
		buf[i] = dist.Sample(rng)
	}
	return &Population{Stakes: buf}, nil
}

// ScaledPopulation draws n stakes from dist and rescales them so the total
// equals totalAlgos. The paper distributes exactly 50 million Algos among
// 500k nodes regardless of the sampling distribution.
func ScaledPopulation(dist Distribution, n int, totalAlgos float64, rng *rand.Rand) (*Population, error) {
	p, err := SamplePopulation(dist, n, rng)
	if err != nil {
		return nil, err
	}
	if totalAlgos <= 0 {
		return nil, errors.New("stake: total stake must be positive")
	}
	sum := p.Total()
	if sum == 0 {
		return nil, errors.New("stake: sampled population has zero total stake")
	}
	scale := totalAlgos / sum
	for i := range p.Stakes {
		p.Stakes[i] *= scale
	}
	return p, nil
}

// N returns the number of accounts.
func (p *Population) N() int { return len(p.Stakes) }

// Total returns the sum of all stakes, S_N in the paper's notation.
func (p *Population) Total() float64 {
	sum := 0.0
	for _, s := range p.Stakes {
		sum += s
	}
	return sum
}

// Min returns the smallest stake in the population; 0 for an empty one.
func (p *Population) Min() float64 {
	if len(p.Stakes) == 0 {
		return 0
	}
	m := p.Stakes[0]
	for _, s := range p.Stakes[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// Max returns the largest stake in the population; 0 for an empty one.
func (p *Population) Max() float64 {
	if len(p.Stakes) == 0 {
		return 0
	}
	m := p.Stakes[0]
	for _, s := range p.Stakes[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// MinAbove returns the smallest stake >= floor, or 0 when no account
// qualifies. Algorithm 1 uses it to compute s*_k under the paper's
// "ignore synchrony sets with stakes below w" rule.
func (p *Population) MinAbove(floor float64) float64 {
	best := 0.0
	found := false
	for _, s := range p.Stakes {
		if s >= floor && (!found || s < best) {
			best = s
			found = true
		}
	}
	if !found {
		return 0
	}
	return best
}

// RemoveBelow returns a new population containing only accounts with stake
// >= w, implementing the paper's U_w(1,200) truncation (Fig. 7-c). The
// receiver is not modified.
func (p *Population) RemoveBelow(w float64) *Population {
	kept := make([]float64, 0, len(p.Stakes))
	for _, s := range p.Stakes {
		if s >= w {
			kept = append(kept, s)
		}
	}
	return &Population{Stakes: kept}
}

// Clone returns a deep copy of the population.
func (p *Population) Clone() *Population {
	stakes := make([]float64, len(p.Stakes))
	copy(stakes, p.Stakes)
	return &Population{Stakes: stakes}
}

// Transfer moves amount Algos from account i to account j, saturating so
// that neither account drops below zero. It returns the amount actually
// moved. The transaction generator uses it to emulate the algoexplorer
// exchange workload between rounds.
func (p *Population) Transfer(i, j int, amount float64) float64 {
	if i < 0 || j < 0 || i >= len(p.Stakes) || j >= len(p.Stakes) || i == j || amount <= 0 {
		return 0
	}
	if amount > p.Stakes[i] {
		amount = p.Stakes[i]
	}
	p.Stakes[i] -= amount
	p.Stakes[j] += amount
	return amount
}

// WeightedSampler draws stake-proportional account indices in O(log n)
// per draw after an O(n) build, using prefix sums and binary search, the
// way the paper picks transacting nodes ("nodes with higher stakes would
// be selected more often"). It snapshots the stakes at construction
// time; rebuild it after transfers if exact proportionality to the
// updated balances matters.
type WeightedSampler struct {
	prefix []float64
}

// NewWeightedSampler builds a sampler over the population's current
// stakes. It returns nil for an empty or zero-stake population.
func NewWeightedSampler(p *Population) *WeightedSampler {
	if p == nil || len(p.Stakes) == 0 {
		return nil
	}
	prefix := make([]float64, len(p.Stakes))
	acc := 0.0
	for i, s := range p.Stakes {
		if s > 0 {
			acc += s
		}
		prefix[i] = acc
	}
	if acc <= 0 {
		return nil
	}
	return &WeightedSampler{prefix: prefix}
}

// Sample draws one stake-weighted index.
func (w *WeightedSampler) Sample(rng *rand.Rand) int {
	total := w.prefix[len(w.prefix)-1]
	target := rng.Float64() * total
	lo, hi := 0, len(w.prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.prefix[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
