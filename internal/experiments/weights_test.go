package experiments

import (
	"reflect"
	"testing"

	"github.com/dsn2020-algorand/incentives/internal/weight"
)

// TestFig3IndexedBitIdentical pins the incremental index against the
// ledger-direct default at the figure level: fig3 runs commit no reward
// or transaction mutations, so the index's initial index-order sum is
// never re-accumulated and both backends must agree bit-for-bit. CI
// re-runs this under -tags weight_ledgerdirect, where the indexed
// selection is forced to ledger-direct and equality is the tag's
// sanity check.
func TestFig3IndexedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol simulation")
	}
	cfg := DefaultFig3Config()
	cfg.Runs = 3
	cfg.Rounds = 4
	cfg.DefectionRates = []float64{0.15}

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
	for _, bad := range []string{
		"pareto", "zipf:x", "zipf:1:2:3", "zipf:1;churn@5:0.1", "zipf:1;decay@5:0.1:0",
		"zipf:NaN", "zipf:Inf", "zipf:1.1:0", "zipf:1.1:-5", "zipf:1.1:NaN", "zipf:1.1:+Inf",
		"zipf:1.1;churn@1:5:-3", "zipf:1.1;churn@1:-0.1:1", "zipf:1.1;churn@1:NaN:1",
		"zipf:1.1;churn@1:0.5:-3", "zipf:1.1;churn@1:0.5:NaN", "zipf:1.1;churn@1:0.5:Inf",
	} {
		if _, err := ParseWeightProfile(bad); err == nil {
			t.Fatalf("spec %q: want error", bad)
		}
	}
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
