package experiments

import (
	"errors"
	"reflect"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// TestFig3IndexedBitIdentical pins the incremental index against the
// ledger-direct default at the figure level, on the dense path and on the
// sparse one: fig3 runs commit no reward or transaction mutations, so the
// index's initial index-order sum is never re-accumulated and both
// backends must agree bit-for-bit. The sparse case also pins that the
// committee sampler maps seats to nodes the same way whichever backend
// serves the round's weights.
func TestFig3IndexedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	dense := DefaultFig3Config()
	dense.Runs = 3
	dense.Rounds = 4
	dense.DefectionRates = []float64{0.15}

	sparse := LargeFig3Config(6000)
	sparse.Sparse = protocol.SparseOn
	sparse.Runs = 2
	sparse.Rounds = 3
	sparse.DefectionRates = []float64{0.10, 0.25}

	for _, tc := range []struct {
		name string
		cfg  Fig3Config
	}{{"dense", dense}, {"sparse", sparse}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.WeightBackend = weight.BackendLedgerDirect
			direct, err := RunFig3(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.WeightBackend = weight.BackendIndexed
			indexed, err := RunFig3(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct.Series, indexed.Series) {
				t.Errorf("fig3 ledger-direct vs indexed diverged:\n%+v\nvs\n%+v", direct.Series, indexed.Series)
			}
		})
	}
}

// TestFig3ZipfChurnDeterministicAcrossWorkers extends the run-pool
// determinism contract to the synthetic backend: a Zipf profile with a
// mid-sweep churn schedule must produce byte-identical figures at every
// worker count (profiles are pure functions of each run's seed).
func TestFig3ZipfChurnDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultFig3Config()
	cfg.Runs = 3
	cfg.Rounds = 4
	cfg.DefectionRates = []float64{0.15}
	cfg.WeightProfile = ZipfProfile(1.1, 25.5, weight.ChurnStep{Round: 2, Frac: 0.2, Scale: 0.5})

	cfg.Workers = 1
	serial, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunFig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Series, parallel.Series) {
		t.Errorf("fig3 zipf+churn workers=1 vs workers=8 diverged:\n%+v\nvs\n%+v", serial.Series, parallel.Series)
	}
}

// TestScenarioIndexedBitIdentical pins backend equivalence on the
// adversary path too: scenario sweeps drive churn/eclipse overlays but
// still commit no ledger mutations, so the backends must agree exactly
// (including the audit counters).
func TestScenarioIndexedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultScenarioConfig("eclipse_equivocation")
	cfg.Runs = 2
	cfg.Rounds = 4

	cfg.WeightBackend = weight.BackendLedgerDirect
	direct, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WeightBackend = weight.BackendIndexed
	indexed, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Final, indexed.Final) ||
		!reflect.DeepEqual(direct.Tentative, indexed.Tentative) ||
		!reflect.DeepEqual(direct.None, indexed.None) ||
		!reflect.DeepEqual(direct.Audit, indexed.Audit) {
		t.Errorf("scenario ledger-direct vs indexed diverged")
	}
}

func TestParseWeightProfile(t *testing.T) {
	if p, err := ParseWeightProfile(""); err != nil || p != nil {
		t.Fatalf("empty spec: profile %v, err %v", p, err)
	}
	p, err := ParseWeightProfile("zipf:1.3:40;churn@5:0.1:0,9:0.2:2")
	if err != nil {
		t.Fatal(err)
	}
	o := p(100, 7)
	if o.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", o.NumNodes())
	}
	// Mean stake honoured before churn fires.
	if got, want := o.TotalWeight(1), 40*100.0; got < want*0.999 || got > want*1.001 {
		t.Fatalf("TotalWeight = %v, want ~%v", got, want)
	}
	for _, bad := range badWeightSpecs {
		if _, err := ParseWeightProfile(bad); err == nil {
			t.Fatalf("spec %q: want error", bad)
		}
	}
}

// badWeightSpecs are specs ParseWeightProfile must refuse.
var badWeightSpecs = []string{
	"pareto", "zipf:x", "zipf:1:2:3", "zipf:1;churn@5:0.1", "zipf:1;decay@5:0.1:0",
	"zipf:NaN", "zipf:Inf", "zipf:1.1:0", "zipf:1.1:-5", "zipf:1.1:NaN", "zipf:1.1:+Inf",
	"zipf:1.1;churn@1:5:-3", "zipf:1.1;churn@1:-0.1:1", "zipf:1.1;churn@1:NaN:1",
	"zipf:1.1;churn@1:0.5:-3", "zipf:1.1;churn@1:0.5:NaN", "zipf:1.1;churn@1:0.5:Inf",
}

// FuzzParseWeightProfile feeds arbitrary specs to ParseWeightProfile.
// Parsing never panics. An accepted spec builds oracles at n = 1, 2 and
// 64 that answer three rounds of WeightsInto and TotalWeight without
// panicking, and the runner's round check either passes those weights
// or returns its typed error. The seeds include three specs that parse
// but give weights sortition cannot use (+Inf, NaN, 1e200 churned to
// +Inf).
func FuzzParseWeightProfile(f *testing.F) {
	for _, spec := range append([]string{
		"", "zipf:1.1", "zipf:0", "zipf:1.3:40;churn@5:0.1:0,9:0.2:2", "zipf:2.5:1;churn@1:1:0",
		"zipf:1.1:1e308", "zipf:-1e300", "zipf:1.1;churn@1:1:1e200,2:1:1e200",
	}, badWeightSpecs...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		profile, err := ParseWeightProfile(spec)
		if err != nil || profile == nil {
			return
		}
		for _, n := range []int{1, 2, 64} {
			o := profile(n, 1)
			var w []float64
			for round := uint64(1); round <= 3; round++ {
				w = o.WeightsInto(round, w)
				if len(w) != n {
					t.Fatalf("spec %q at n=%d: round %d has %d weights", spec, n, round, len(w))
				}
				err := protocol.CheckWeights(round, w, o.TotalWeight(round))
				var rangeErr *protocol.WeightRangeError
				if err != nil && !errors.As(err, &rangeErr) {
					t.Fatalf("spec %q at n=%d: round check returned %T: %v", spec, n, err, err)
				}
			}
		}
	})
}

func TestParseWeightBackend(t *testing.T) {
	for spec, want := range map[string]weight.Backend{
		"":              weight.BackendLedgerDirect,
		"direct":        weight.BackendLedgerDirect,
		"ledger-direct": weight.BackendLedgerDirect,
		"indexed":       weight.BackendIndexed,
	} {
		got, err := ParseWeightBackend(spec)
		if err != nil || got != want {
			t.Fatalf("ParseWeightBackend(%q) = %v, %v", spec, got, err)
		}
	}
	if _, err := ParseWeightBackend("fenwick"); err == nil {
		t.Fatal("want error for unknown backend name")
	}
}
