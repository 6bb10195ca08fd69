package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("t_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("t_hist", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 500} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if h.Sum() != 505.5 {
		t.Fatalf("hist sum = %v, want 505.5", h.Sum())
	}
	if h.buckets[0].Load() != 1 || h.buckets[1].Load() != 1 || h.buckets[2].Load() != 1 {
		t.Fatal("histogram observations landed in the wrong buckets")
	}
}

func TestRegistryDedupesAndPanicsOnKindClash(t *testing.T) {
	r := NewRegistry()
	if r.Counter("t_total", "a") != r.Counter("t_total", "b") {
		t.Fatal("same (name, labels) did not dedupe to one counter")
	}
	if r.CounterVec("t_vec", "k", "a", "") == r.CounterVec("t_vec", "k", "b", "") {
		t.Fatal("different label values share one counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("t_total", "now a gauge")
}

// The whole layer must be callable with telemetry off: a nil registry
// hands out nil metrics and every method on them is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("x", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("x", "", []float64{1})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded an observation")
	}
	if r.DeterministicTotals() != nil {
		t.Fatal("nil registry produced totals")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var sm *SimMetrics
	if NewSimMetrics(nil) != nil || NewPoolMetrics(nil) != nil || sm != nil {
		t.Fatal("nil registry produced a metrics bundle")
	}
	var pm *PoolMetrics
	pm.WorkerBusy(3).Add(1)
	pm.AuditEvents("clean").Inc()
	var tr *Trace
	if tr.Panel() != 0 || tr.Len() != 0 {
		t.Fatal("nil trace has a panel or events")
	}
	tr.Span("cat", "name", 0, 0, 1)
	tr.Instant("cat", "name", 0, 0)
}

// Two registries that observed the same simulated work must snapshot
// identical deterministic totals, with wall metrics and gauges excluded.
func TestDeterministicTotals(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("sim_x_total", "").Add(5)
		r.Histogram("sim_h", "", []float64{1, 2}).Observe(1.5)
		r.CounterVec("sim_v_total", "kind", "a", "").Add(2)
		return r
	}
	a, b := build(), build()
	// Wall-class noise must not affect the snapshot.
	a.WallCounter("wall_ns_total", "").Add(12345)
	a.Gauge("depth", "").Set(99)
	ta, tb := a.DeterministicTotals(), b.DeterministicTotals()
	if fmt.Sprint(ta) != fmt.Sprint(tb) {
		t.Fatalf("totals differ:\n a=%v\n b=%v", ta, tb)
	}
	if _, ok := ta["wall_ns_total"]; ok {
		t.Fatal("wall counter leaked into deterministic totals")
	}
	if _, ok := ta["depth"]; ok {
		t.Fatal("gauge leaked into deterministic totals")
	}
	if ta["sim_x_total"] != 5 || ta[`sim_v_total{kind="a"}`] != 2 {
		t.Fatalf("unexpected totals %v", ta)
	}
	if ta["sim_h!count"] != 1 || ta["sim_h!b1"] != 1 {
		t.Fatalf("histogram flattened wrong: %v", ta)
	}
}

// WritePrometheus output must parse cleanly through our own linter and
// declare every family exactly once.
func TestPrometheusWriteLintRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_rounds_total", "rounds").Add(10)
	r.Gauge("pool_queue_depth", "depth").Set(-3)
	r.CounterVec("exp_audit_events_total", "kind", `we"ird\value`, "audits").Inc()
	h := r.Histogram("sim_committee_size", "sizes", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	families, err := LintPrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("lint rejected our own output: %v\n%s", err, text)
	}
	want := map[string]bool{
		"sim_rounds_total": true, "pool_queue_depth": true,
		"exp_audit_events_total": true, "sim_committee_size": true,
	}
	for _, f := range families {
		delete(want, f)
	}
	if len(want) != 0 {
		t.Fatalf("families missing from lint result: %v\n%s", want, text)
	}
	for _, needle := range []string{
		"# TYPE sim_rounds_total counter",
		"sim_rounds_total 10",
		"pool_queue_depth -3",
		`sim_committee_size_bucket{le="+Inf"} 2`,
		"sim_committee_size_count 2",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("exposition missing %q:\n%s", needle, text)
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := []string{
		"9bad_name 1\n",
		"# TYPE x counter\nx notanumber\n",
		"x{le=unquoted} 1\n",
		"# TYPE x counter\n# TYPE x gauge\nx 1\n",
	}
	for _, in := range cases {
		if _, err := LintPrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("lint accepted malformed input %q", in)
		}
	}
}

func TestTraceJSON(t *testing.T) {
	tr := NewTrace(4)
	if tr.Panel() != 4 {
		t.Fatalf("panel = %d, want 4", tr.Panel())
	}
	tr.Span("round", "round 1", 0, 1000, 2000)
	tr.Instant("gossip", "vote", 2, 1500)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "X" || doc.TraceEvents[0]["dur"] != 2.0 {
		t.Fatalf("span event malformed: %v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1]["ph"] != "i" {
		t.Fatalf("instant event malformed: %v", doc.TraceEvents[1])
	}
}

func TestEnableDisableDefault(t *testing.T) {
	Disable()
	if Default() != nil || DefaultSim() != nil || DefaultPool() != nil {
		t.Fatal("disabled telemetry still hands out a registry or bundles")
	}
	r := Enable()
	if r == nil || Default() != r || Enable() != r {
		t.Fatal("Enable is not idempotent on one registry")
	}
	m := DefaultSim()
	if m == nil || DefaultSim() != m {
		t.Fatal("DefaultSim is not cached per registry")
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable left the registry installed")
	}
	// A fresh Enable must hand out fresh bundles, not stale caches.
	r2 := Enable()
	defer Disable()
	if r2 == r {
		t.Fatal("Enable after Disable reused the old registry")
	}
	if DefaultSim() == m {
		t.Fatal("DefaultSim cache survived an Enable/Disable cycle")
	}
}

func TestServeEndpoints(t *testing.T) {
	Disable()
	reg := Enable()
	defer Disable()
	reg.Counter("sim_rounds_total", "rounds").Add(42)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "sim_rounds_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if _, err := LintPrometheus(strings.NewReader(metrics)); err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}
	vars := get("/debug/vars")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := doc["obs"]; !ok {
		t.Fatal("/debug/vars missing the obs export")
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Fatal("/debug/pprof/cmdline returned nothing")
	}
}

func TestHistogramObserveBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "", []float64{1, 2})
	h.Observe(1) // inclusive upper bound: le="1"
	h.Observe(math.Inf(1))
	if h.buckets[0].Load() != 1 {
		t.Fatal("upper bound not inclusive")
	}
	if h.buckets[2].Load() != 1 {
		t.Fatal("+Inf observation missed the overflow bucket")
	}
}

// A scrape racing a histogram's first registration must see it complete:
// the exporter once indexed a published histogram before its buckets
// were allocated. Run under -race to catch the unordered access.
func TestScrapeDuringHistogramRegistration(t *testing.T) {
	r := NewRegistry()
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		r.Histogram(fmt.Sprintf("sim_h%d", i), "", []float64{1, 2, 4}).Observe(3)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
