package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// WeightProfile builds a per-run synthetic weight oracle for n nodes
// from the run's seed; nil keeps weights ledger-backed. Profiles are
// pure functions of (n, seed), so a sweep stays bit-identical across
// worker counts — each run constructs its own oracle from its own seed.
type WeightProfile func(n int, seed int64) weight.Oracle

// ZipfProfile returns the heavy-tail profile: rank-r stake proportional
// to r^-exponent, normalized so the mean stake is meanStake (matching
// the U{1..50} baseline scale when meanStake is 25.5), with an optional
// churn schedule replayed identically in every run.
func ZipfProfile(exponent, meanStake float64, churn ...weight.ChurnStep) WeightProfile {
	return func(n int, seed int64) weight.Oracle {
		return weight.NewZipf(n, exponent, meanStake*float64(n), seed).WithChurn(churn)
	}
}

// ParseWeightProfile resolves a CLI profile spec: "" selects ledger
// weights (nil profile), "zipf:<exponent>" the Zipf profile at the
// baseline mean stake, and "zipf:<exponent>:<meanStake>" overrides the
// scale. An optional ";churn@<round>:<frac>:<scale>[,...]" suffix
// appends a churn schedule, e.g. "zipf:1.1;churn@10:0.2:0,20:0.1:3".
// The exponent must be finite and the mean stake finite and positive.
func ParseWeightProfile(spec string) (WeightProfile, error) {
	if spec == "" {
		return nil, nil
	}
	base := spec
	var churn []weight.ChurnStep
	if i := strings.IndexByte(spec, ';'); i >= 0 {
		base = spec[:i]
		var err error
		churn, err = parseChurn(spec[i+1:])
		if err != nil {
			return nil, err
		}
	}
	parts := strings.Split(base, ":")
	if parts[0] != "zipf" || len(parts) > 3 {
		return nil, fmt.Errorf("experiments: unknown weight profile %q (want zipf:<exponent>[:<meanStake>])", spec)
	}
	exponent := 1.1
	meanStake := 25.5
	var err error
	if len(parts) > 1 && parts[1] != "" {
		if exponent, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("experiments: weight profile %q: bad exponent: %w", spec, err)
		}
	}
	if len(parts) > 2 {
		if meanStake, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return nil, fmt.Errorf("experiments: weight profile %q: bad mean stake: %w", spec, err)
		}
	}
	if math.IsNaN(exponent) || math.IsInf(exponent, 0) {
		return nil, fmt.Errorf("experiments: weight profile %q: exponent %v is not finite", spec, exponent)
	}
	if !(meanStake > 0) || math.IsInf(meanStake, 1) {
		return nil, fmt.Errorf("experiments: weight profile %q: mean stake %v is not finite and positive", spec, meanStake)
	}
	return ZipfProfile(exponent, meanStake, churn...), nil
}

// parseChurn decodes "churn@<round>:<frac>:<scale>[,<round>:<frac>:<scale>...]".
// Each fraction must lie in [0, 1] and each scale be finite and
// non-negative.
func parseChurn(spec string) ([]weight.ChurnStep, error) {
	body, ok := strings.CutPrefix(spec, "churn@")
	if !ok {
		return nil, fmt.Errorf("experiments: bad churn spec %q (want churn@<round>:<frac>:<scale>,...)", spec)
	}
	var steps []weight.ChurnStep
	for _, item := range strings.Split(body, ",") {
		f := strings.Split(item, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("experiments: bad churn step %q (want <round>:<frac>:<scale>)", item)
		}
		round, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn step %q: bad round: %w", item, err)
		}
		frac, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn step %q: bad fraction: %w", item, err)
		}
		scale, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn step %q: bad scale: %w", item, err)
		}
		if !(frac >= 0 && frac <= 1) {
			return nil, fmt.Errorf("experiments: churn step %q: fraction %v outside [0,1]", item, frac)
		}
		if !(scale >= 0) || math.IsInf(scale, 1) {
			return nil, fmt.Errorf("experiments: churn step %q: scale %v is not finite and non-negative", item, scale)
		}
		steps = append(steps, weight.ChurnStep{Round: round, Frac: frac, Scale: scale})
	}
	return steps, nil
}

// ParseWeightBackend resolves a CLI backend name to the ledger-backed
// oracle selection: "" or "direct" is ledger-direct, "indexed" the
// incremental stake index.
func ParseWeightBackend(name string) (weight.Backend, error) {
	switch name {
	case "", "direct", "ledger-direct":
		return weight.BackendLedgerDirect, nil
	case "indexed":
		return weight.BackendIndexed, nil
	default:
		return 0, fmt.Errorf("experiments: unknown weight backend %q (want direct or indexed)", name)
	}
}
