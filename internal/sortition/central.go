package sortition

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// This file holds the centralized (sparse-committee) sampling primitives:
// instead of evaluating one VRF lottery per node per step — O(population)
// work for committees whose expected size is a constant τ — the runner
// draws the TOTAL number of selected seats from the binomial over the
// whole network stake and maps each seat to a node by bisecting the
// cumulative integer stake. By binomial splitting, seats assigned to
// nodes in proportion to stake yield exactly the per-node joint
// distribution Binomial(w_i, p) that independent per-node draws produce.
// The per-node draw is the protocol's dense round path, and the
// randomized equivalence suite pins the committee-size distributions of
// the two paths against each other.

// maxChunkLogPMF bounds -n·log1p(-p) per chunk so the chunk's pmf(0)
// never underflows to zero in the CDF-inversion loop. exp(-600) ≈ 2e-261
// stays comfortably inside the normal float64 range.
const maxChunkLogPMF = 600

// Binomial draws an exact Binomial(n, p) sample using rng. The sampler
// splits n into chunks small enough that each chunk's pmf(0) = (1-p)^m
// stays representable, draws each chunk by the same incremental
// CDF-inversion recurrence subUsers uses, and sums; for p > 1/2 it
// applies the symmetry Binomial(n, p) = n − Binomial(n, 1−p). The
// expected cost is O(n·p + n/chunk), i.e. proportional to the draw
// itself for the small selection probabilities sortition uses, never to
// a dense per-trial sweep.
func Binomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - Binomial(rng, n, 1-p)
	}
	perTrial := -math.Log1p(-p) // > 0
	chunk := n
	if float64(chunk)*perTrial > maxChunkLogPMF {
		chunk = int64(maxChunkLogPMF / perTrial)
		if chunk < 1 {
			chunk = 1
		}
	}
	var total int64
	for remaining := n; remaining > 0; {
		m := chunk
		if m > remaining {
			m = remaining
		}
		total += binomialChunk(rng, m, p)
		remaining -= m
	}
	return total
}

// binomialChunk inverts the Binomial(m, p) CDF against one uniform draw
// with the iterative pmf ratio update; m is small enough that pmf(0)
// cannot underflow.
func binomialChunk(rng *rand.Rand, m int64, p float64) int64 {
	u := rng.Float64()
	pmf := math.Exp(float64(m) * math.Log1p(-p))
	cdf := pmf
	ratio := p / (1 - p)
	var j int64
	for u >= cdf && j < m {
		pmf *= ratio * float64(m-j) / float64(j+1)
		cdf += pmf
		j++
	}
	return j
}

// pseudoDomain separates centrally-fabricated credential outputs from
// every honest VRF output domain.
var pseudoDomain = [8]byte{'s', 'p', 'a', 'r', 's', 'e', 'c', 'r'}

// Pseudo fabricates the credential for a centrally sampled selection:
// the sparse-committee path decides SubUsers by drawing the total seat
// count once per step and assigning seats by stake, so no per-node VRF
// evaluation exists to produce an output. The fabricated Output is a
// deterministic hash over (domain ‖ sortition message ‖ voter) — uniform
// and unequivocal per (params, voter) exactly like a VRF output — and
// Priority is derived from it by the same bestPriority rule the dense
// path uses, so proposal selection keeps its statistics. The Proof is
// zero: sparse credentials are valid by construction (the sampler
// fabricated them), so the runner stamps their verification memo
// directly instead of calling Verify.
func Pseudo(p Params, voter int, subUsers int) Result {
	msg := p.message()
	var buf [8 + messageLen + 8]byte
	copy(buf[:8], pseudoDomain[:])
	copy(buf[8:8+messageLen], msg[:])
	binary.BigEndian.PutUint64(buf[8+messageLen:], uint64(int64(voter)))
	out := vrf.Output(sha256.Sum256(buf[:]))
	res := Result{
		SubUsers: subUsers,
		Output:   out,
	}
	if subUsers > 0 {
		res.Priority = bestPriority(out, subUsers)
	}
	return res
}
