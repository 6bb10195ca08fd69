package sortition

import "github.com/dsn2020-algorand/incentives/internal/vrf"

// SelectBernoulli is the whole-node lottery some early PoS designs used
// and the comparator for the binomial sub-user scheme: the node is
// selected all-or-nothing with probability min(1, stake·τ/W), and a
// selected node carries its entire stake as weight. The scheme has two
// defects the sub-user design fixes, and TestBernoulliDefectsVsBinomial
// measures both: (i) with heterogeneous stakes the expected selected
// stake is (τ/W)·Σs² > τ (rich accounts are double counted — once in
// the probability and once in the weight), and (ii) committee stake
// arrives in whole-account lumps, so its variance is far higher than the
// per-stake-unit lottery's.
func SelectBernoulli(key vrf.PrivateKey, stake float64, p Params) (Result, error) {
	if p.Tau <= 0 || p.TotalStake <= 0 {
		return Result{}, ErrInvalidParams
	}
	if stake < 0 {
		return Result{}, ErrInvalidParams
	}
	msg := p.message()
	out, proof := key.Evaluate(msg[:])
	prob := stake * p.Tau / p.TotalStake
	if prob > 1 {
		prob = 1
	}
	res := Result{Output: out, Proof: proof}
	if out.Uniform() < prob {
		res.SubUsers = int(stake)
		if res.SubUsers < 1 {
			res.SubUsers = 1
		}
		res.Priority = bestPriority(out, 1)
	}
	return res, nil
}

// VerifyBernoulli checks a claimed whole-node selection.
func VerifyBernoulli(pub vrf.PublicKey, stake float64, p Params, res Result) bool {
	if p.Tau <= 0 || p.TotalStake <= 0 || stake < 0 {
		return false
	}
	msg := p.message()
	if !pub.Verify(msg[:], res.Output, res.Proof) {
		return false
	}
	prob := stake * p.Tau / p.TotalStake
	if prob > 1 {
		prob = 1
	}
	selected := res.Output.Uniform() < prob
	if !selected {
		return res.SubUsers == 0 && res.Priority.IsZero()
	}
	want := int(stake)
	if want < 1 {
		want = 1
	}
	return res.SubUsers == want && res.Priority == bestPriority(res.Output, 1)
}
