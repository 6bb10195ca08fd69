package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/obs"
)

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	id, parent int
	name       string
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its id (ids start at 1; 0 is "none").
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].end = time.Now()
	l.mu.Unlock()
}

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{id: len(l.spans) + 1, parent: parent, name: name, start: start, end: end})
	return len(l.spans)
}

// durations returns, in milliseconds, the spans whose name has prefix.
func (l *spanLog) durations(prefix string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if strings.HasPrefix(s.name, prefix) {
			out = append(out, 1e3*s.end.Sub(s.start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format, which
// chrome://tracing and Perfetto load; args carry id and parent.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Sub(l.epoch).Microseconds()),
			Dur:  float64(s.end.Sub(s.start).Microseconds()),
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	l.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// readCounters reads what a traced pass takes deltas of: process CPU,
// the runtime's GC statistics and the telemetry registry's counters.
func readCounters() map[string]float64 {
	c := map[string]float64{}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c["cpu"] = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	rm := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(rm)
	c["gc_cpu"] = rm[0].Value.Float64()
	c["alloc_bytes"] = float64(rm[1].Value.Uint64())
	c["gc_cycles"] = float64(rm[2].Value.Uint64())
	add := func(counters map[string]*obs.Counter) {
		for name, ctr := range counters {
			c[name] += float64(ctr.Value())
		}
	}
	if m := obs.DefaultSim(); m != nil {
		add(map[string]*obs.Counter{
			"events": m.EventsExecuted, "scheduled": m.EventsScheduled, "migrated": m.EventsMigrated,
			"sort_hits": m.SortitionHits, "sort_misses": m.SortitionMisses,
			"refresh_ns": m.WeightRefreshNS, "index_updates": m.WeightIndexUpdate,
			"resyncs": m.Resyncs, "desynced": m.DesyncedNodes, "rounds": m.Rounds,
			"decided": m.RoundsDecided, "steps": m.Steps, "round_wall_ns": m.RoundWallNS,
		})
		c["seats"], c["seats_sum"] = float64(m.CommitteeSize.Count()), m.CommitteeSize.Sum()
	}
	if p := obs.DefaultPool(); p != nil {
		for w := 0; w < workers; w++ {
			add(map[string]*obs.Counter{"busy_ns": p.WorkerBusy(w)})
		}
		add(map[string]*obs.Counter{"rows": p.RowsStreamed, "flushes": p.CheckpointFlushes})
	}
	// The registry dedupes registration, so this bundle shares the
	// daemon's counters; without a daemon they stay zero.
	if d := obs.NewSimdMetrics(obs.Default()); d != nil {
		add(map[string]*obs.Counter{"simd_hits": d.CellCacheHits, "simd_misses": d.CellCacheMisses})
	}
	return c
}

// heapPeak samples the live heap every 10 ms and keeps the maximum.
// The live heap is what the last GC kept, so its peak depends on when
// GCs land: identical dense runs peak anywhere from 290 to 380 MiB,
// which is why the peak is a layer metric and the end-to-end memory
// metric is allocation per round.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(max(h.peak, liveHeap())) / (1 << 20)
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// tracer gathers the three sources of a traced pass: a CPU profile,
// the registry's counters, and spans recorded around calls into each
// layer.
type tracer struct {
	spans    *spanLog
	root     int
	heap     *heapPeak
	start    time.Time
	before   map[string]float64
	prof     *os.File
	profPath string
	spanPath string
}

// startTrace enables the telemetry registry and starts the CPU profile.
// Artefacts go to <work>/trace.
func startTrace(opt options, name string) (*tracer, error) {
	obs.Enable()
	dir := filepath.Join(opt.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, opt.seed))
	t := &tracer{spans: newSpanLog(), profPath: base + ".cpu.pprof", spanPath: base + ".spans.json"}
	f, err := os.Create(t.profPath)
	if err != nil {
		return nil, err
	}
	t.prof = f
	t.start, t.before = time.Now(), readCounters()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t.heap = startHeapPeak()
	t.root = t.spans.begin("measured", 0)
	return t, nil
}

// abort stops the profile of a pass that failed.
func (t *tracer) abort() {
	t.heap.finish()
	pprof.StopCPUProfile()
	t.prof.Close()
}

// finish stops the profile, reduces it by module and turns the counter
// deltas and spans of pass p into layer statistics.
func (t *tracer) finish(p pass) (*layerStats, error) {
	pprof.StopCPUProfile()
	after, wall := readCounters(), time.Since(t.start).Seconds()
	t.spans.end(t.root)
	heapPeakMB := t.heap.finish()
	if err := t.prof.Close(); err != nil {
		return nil, err
	}
	shares, err := profileShares(t.profPath)
	if err != nil {
		return nil, err
	}
	ls := &layerStats{d: map[string]float64{}, cpu: map[string]float64{}, wall: wall, heapPeakMB: heapPeakMB}
	for k, v := range after {
		ls.d[k] = v - t.before[k]
	}
	for _, mod := range modules {
		ls.cpu[mod] = shares[mod] * ls.d["cpu"]
	}
	for _, d := range t.spans.durations("sink.") {
		ls.sinkS += d / 1e3
	}
	ls.submitMS = orZero(t.spans.durations("http.submit"))
	var cached, cold, first []float64
	for _, op := range p.ops {
		if op.streamBytes == 0 {
			continue // not a daemon job
		}
		ls.streamBytes += op.streamBytes
		if op.rounds == 0 {
			cached = append(cached, ms(op.wall))
		} else {
			cold = append(cold, ms(op.wall))
			first = append(first, ms(op.firstCell))
		}
	}
	ls.coldMS, ls.firstCellMS = orZero(cold), orZero(first)
	if len(cached) > 0 {
		ls.cachedP50 = median(cached)
		if ls.cachedP90, err = percentile(cached, 0.9); err != nil {
			return nil, fmt.Errorf("cached job latency: %w", err)
		}
	}
	return ls, nil
}

func (t *tracer) writeSpans() error { return t.spans.writeChrome(t.spanPath) }

// modules are the layers CPU is charged to: the repository's modules
// (vrf counted with sortition, stake with weight), the Go runtime's own
// work (GC workers, scheduler), and other — the benchmark itself, the
// HTTP client and telemetry.
var modules = []string{"sim", "network", "protocol", "sortition", "weight", "ledger",
	"adversary", "experiments", "runpool", "simd", "runtime", "other"}

const modulePrefix = "github.com/dsn2020-algorand/incentives/internal/"

// moduleOf charges one sampled stack (leaf first) to a module: its
// innermost repository frame, so runtime work such as map lookups and
// allocation is charged to the repository code that asked for it.
// Stacks with no repository frame go to runtime when they run a GC
// worker or only runtime code, and to other otherwise.
func moduleOf(stack []string) string {
	gcWorker, onlyRuntime := false, true
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			switch pkg {
			case "vrf":
				return "sortition"
			case "stake":
				return "weight"
			case "sim", "network", "protocol", "sortition", "weight", "ledger", "adversary", "experiments", "runpool", "simd":
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gcWorker = true
		}
		if !strings.HasPrefix(fn, "runtime.") {
			onlyRuntime = false
		}
	}
	if gcWorker || onlyRuntime {
		return "runtime"
	}
	return "other"
}

// profileShares runs `go tool pprof -traces` on a CPU profile and
// returns each module's share of the sampled CPU time.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return reduceTraces(string(out))
}

// reduceTraces parses `pprof -traces` text: blocks separated by
// "-----------+---..." lines, each a sample value followed by the leaf
// frame, then one caller frame per line up to the root.
func reduceTraces(text string) (map[string]float64, error) {
	by := map[string]float64{}
	total := 0.0
	var stack []string
	var value float64
	flush := func() {
		if len(stack) > 0 {
			by[moduleOf(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	inBlock := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			d, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = d
			line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))
		}
		stack = append(stack, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// parseSampleValue reads a pprof sample value such as "10ms" or "1.20s".
func parseSampleValue(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	return 0, fmt.Errorf("pprof traces: bad sample value %q", s)
}
