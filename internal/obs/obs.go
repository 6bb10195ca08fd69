// Package obs is the simulator's telemetry layer: a metrics registry of
// atomic counters, gauges and fixed-bucket histograms, a Prometheus
// text-format / expvar exporter with an opt-in HTTP endpoint, and a
// Chrome-trace-format round recorder.
//
// # Determinism contract
//
// Telemetry must never perturb a simulation: no instrumentation point
// reads an RNG, schedules an event, or mutates protocol state, so every
// output — golden figures, -full grid CSVs, checkpoint and resume
// files — is byte-identical with telemetry enabled, disabled, or scraped
// mid-run. Metrics are split into two classes at registration:
//
//   - deterministic metrics (Counter, Histogram) measure simulated work
//     (rounds, events, committee sizes) and total to identical values at
//     any worker count — DeterministicTotals snapshots exactly this class;
//   - wall metrics (WallCounter, WallCounterVec, and every Gauge)
//     measure real time, instantaneous state, or execution-shaped counts
//     that depend on how work was scheduled rather than on what was
//     simulated (busy nanoseconds, queue depth, cache hit/miss splits)
//     and are excluded from the determinism snapshot.
//
// # Overhead contract
//
// The registry is nil-safe end to end: a nil *Registry returns nil
// metrics, and every method on a nil metric is a no-op, so a disabled
// build pays one predictable branch per flush point and zero
// allocations. Hot loops (the event scheduler, the sortition cache)
// keep plain uint64 fields and flush deltas into the shared atomic
// registry once per round.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric for the exporters.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// metric is one registry entry: a metric family name, optional fixed
// label pair ('key="value"'), and exactly one live metric value.
type metric struct {
	name   string // family name, e.g. sim_rounds_total
	labels string // rendered label list without braces, may be empty
	help   string
	kind   Kind
	wall   bool // wall-clock / instantaneous: excluded from DeterministicTotals
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry or through Enable. All methods are safe for
// concurrent use, and a nil *Registry is valid everywhere: every
// constructor returns nil, making the whole layer a no-op.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register returns the existing metric for (name, labels) or creates
// one; bounds are a new histogram's bucket bounds. A metric is complete
// before it is published, so a concurrent scrape never sees a histogram
// without buckets. Re-registration with a different kind panics: the
// catalog is static and a kind clash is a programming error.
func (r *Registry) register(name, labels, help string, kind Kind, wall bool, bounds []float64) *metric {
	key := name + "\x00" + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return m
	}
	m := &metric{name: name, labels: labels, help: help, kind: kind, wall: wall}
	switch kind {
	case KindCounter:
		m.ctr = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter registers (or looks up) a deterministic counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, "", help, KindCounter, false, nil).ctr
}

// WallCounter registers a counter of wall-clock quantities (elapsed
// nanoseconds, scrape counts); it is excluded from DeterministicTotals.
func (r *Registry) WallCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, "", help, KindCounter, true, nil).ctr
}

// WallCounterVec registers a wall counter carrying one fixed label pair,
// e.g. WallCounterVec("pool_worker_busy_ns_total", "worker", "3", ...).
func (r *Registry) WallCounterVec(name, label, value, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, label+`="`+escapeLabel(value)+`"`, help, KindCounter, true, nil).ctr
}

// CounterVec registers a deterministic counter carrying one fixed label
// pair, e.g. CounterVec("exp_audit_events_total", "kind", "safety", ...).
func (r *Registry) CounterVec(name, label, value, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, label+`="`+escapeLabel(value)+`"`, help, KindCounter, false, nil).ctr
}

// Gauge registers an instantaneous gauge. Gauges are always excluded
// from DeterministicTotals: their value depends on when they are read.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, "", help, KindGauge, true, nil).gauge
}

// Histogram registers a deterministic fixed-bucket histogram. bounds are
// the inclusive upper bounds in ascending order; a +Inf bucket is
// implicit. The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, "", help, KindHistogram, false, bounds).hist
}

// snapshot returns the registered metrics sorted by (name, labels) for
// the exporters; the slice is private to the caller.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// DeterministicTotals snapshots every deterministic metric into a flat
// map: counters by name, histograms as name+"!count", name+"!sumbits"
// and one entry per bucket. Two registries that observed the same
// simulated work — at any worker count, scraped or not — compare equal.
func (r *Registry) DeterministicTotals() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64)
	for _, m := range r.snapshot() {
		if m.wall {
			continue
		}
		key := m.name
		if m.labels != "" {
			key += "{" + m.labels + "}"
		}
		switch m.kind {
		case KindCounter:
			out[key] = m.ctr.Value()
		case KindHistogram:
			h := m.hist
			out[key+"!count"] = h.count.Load()
			out[key+"!sumbits"] = h.sumBits.Load()
			for i := range h.buckets {
				out[key+"!b"+itoa(i)] = h.buckets[i].Load()
			}
		}
	}
	return out
}

// --- Metric types --------------------------------------------------------

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total; zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. All methods are no-ops on a
// nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a total count and sum. All methods are no-ops on a nil
// receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// --- Global default ------------------------------------------------------

var global atomic.Pointer[Registry]

// Enable installs (creating on first call) the process-global registry
// and returns it. Until Enable is called, Default returns nil and every
// instrumentation point no-ops.
func Enable() *Registry {
	for {
		if r := global.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if global.CompareAndSwap(nil, r) {
			return r
		}
	}
}

// Disable removes the global registry; subsequent Default calls return
// nil and a later Enable starts from a fresh registry. Tests use the
// pair to isolate determinism snapshots.
func Disable() { global.Store(nil) }

// Default returns the global registry, or nil when telemetry is off.
func Default() *Registry { return global.Load() }

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// itoa is a minimal non-negative integer formatter (avoids strconv in
// the snapshot hot-ish path; also keeps DeterministicTotals allocation
// behaviour obvious).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
