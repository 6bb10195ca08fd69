package main

import (
	"os"
	"strconv"
	"strings"
)

// End-to-end metrics (untraced runs) and per-layer metrics (traced
// runs), by name and unit. BENCHMARK.json lists the same names.
var (
	endToEndUnits = map[string]string{
		"setup_s":            "s",
		"rounds_per_s":       "1/s",
		"alloc_mb_per_round": "MiB",
	}
	layerUnits = map[string]string{
		"sim.cpu_s":                      "s",
		"sim.events":                     "count",
		"sim.migrated_frac":              "ratio",
		"sim.ns_per_event":               "ns",
		"network.cpu_s":                  "s",
		"network.msgs_sent":              "count",
		"network.dup_frac":               "ratio",
		"protocol.cpu_s":                 "s",
		"protocol.round_ms_p50":          "ms",
		"protocol.round_ms_max":          "ms",
		"protocol.round_ms_mean":         "ms",
		"protocol.propose_ms":            "ms",
		"protocol.vote_ms":               "ms",
		"protocol.finalize_ms":           "ms",
		"protocol.steps_per_round":       "count",
		"protocol.decided_frac":          "ratio",
		"protocol.new_runner_ms":         "ms",
		"sortition.cpu_s":                "s",
		"sortition.cache_hit_frac":       "ratio",
		"sortition.committee_seats_mean": "count",
		"weight.cpu_s":                   "s",
		"weight.refresh_ms":              "ms",
		"weight.index_updates":           "count",
		"ledger.cpu_s":                   "s",
		"ledger.resyncs":                 "count",
		"ledger.desynced_node_rounds":    "count",
		"adversary.cpu_s":                "s",
		"experiments.cpu_s":              "s",
		"experiments.sink_s":             "s",
		"experiments.rows":               "count",
		"experiments.checkpoint_flushes": "count",
		"runpool.cpu_s":                  "s",
		"runpool.busy_frac":              "ratio",
		"simd.cpu_s":                     "s",
		"simd.submit_ms_p50":             "ms",
		"simd.cold_job_ms_p50":           "ms",
		"simd.first_cell_ms_p50":         "ms",
		"simd.cached_job_ms_p50":         "ms",
		"simd.cached_job_ms_p90":         "ms",
		"simd.stream_bytes":              "bytes",
		"simd.cache_hit_frac":            "ratio",
		"runtime.cpu_s":                  "s",
		"runtime.gc_cpu_s":               "s",
		"runtime.alloc_mb":               "MiB",
		"runtime.heap_peak_mb":           "MiB",
		"runtime.gc_cycles":              "count",
		"runtime.rss_peak_mb":            "MiB",
		"other.cpu_s":                    "s",
		"process.cpu_s":                  "s",
		"trace.overhead_frac":            "ratio",
	}
)

// layerStats is what one traced pass measured, layer by layer: the
// deltas of readCounters over the pass, CPU by module, span timings,
// and what re-driving some of the pass's runs through the protocol API
// measured (see redrive.go).
type layerStats struct {
	d          map[string]float64
	cpu        map[string]float64
	wall       float64
	heapPeakMB float64

	sinkS       float64
	submitMS    float64
	coldMS      float64
	firstCellMS float64
	cachedP50   float64
	cachedP90   float64
	streamBytes int

	roundMS, proposeMS, voteMS, finalizeMS []float64
	msgsSent, delivered, duplicate         uint64
	redriven                               int // runs re-driven

	newRunnerMS float64
	overhead    float64
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero is the median of xs, or 0 when the layer recorded none.
func orZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// report writes every per-layer metric. A count, time or share of work
// a workload does not do reports 0: the sparse path pushes no gossip
// messages, and only the grid streams into a sink stack of its caller's.
func (l *layerStats) report(m map[string]metric) {
	d := l.d
	put := func(name string, v float64) { m[name] = metric{v, layerUnits[name]} }
	for _, mod := range modules {
		put(mod+".cpu_s", l.cpu[mod])
	}
	put("process.cpu_s", d["cpu"])

	put("sim.events", d["events"])
	put("sim.migrated_frac", ratio(d["migrated"], d["scheduled"]))
	put("sim.ns_per_event", ratio(1e9*l.cpu["sim"], d["events"]))

	put("network.msgs_sent", float64(l.msgsSent))
	put("network.dup_frac", ratio(float64(l.duplicate), float64(l.delivered+l.duplicate)))

	maxRound := 0.0
	for _, r := range l.roundMS {
		maxRound = max(maxRound, r)
	}
	put("protocol.round_ms_p50", orZero(l.roundMS))
	put("protocol.round_ms_max", maxRound)
	put("protocol.round_ms_mean", ratio(d["round_wall_ns"]/1e6, d["rounds"]))
	put("protocol.propose_ms", orZero(l.proposeMS))
	put("protocol.vote_ms", orZero(l.voteMS))
	put("protocol.finalize_ms", orZero(l.finalizeMS))
	put("protocol.steps_per_round", ratio(d["steps"], d["rounds"]))
	put("protocol.decided_frac", ratio(d["decided"], d["rounds"]))
	put("protocol.new_runner_ms", l.newRunnerMS)

	put("sortition.cache_hit_frac", ratio(d["sort_hits"], d["sort_hits"]+d["sort_misses"]))
	put("sortition.committee_seats_mean", ratio(d["seats_sum"], d["seats"]))

	put("weight.refresh_ms", d["refresh_ns"]/1e6)
	put("weight.index_updates", d["index_updates"])

	put("ledger.resyncs", d["resyncs"])
	put("ledger.desynced_node_rounds", d["desynced"])

	put("experiments.sink_s", l.sinkS)
	put("experiments.rows", d["rows"])
	put("experiments.checkpoint_flushes", d["flushes"])

	put("runpool.busy_frac", ratio(d["busy_ns"]/1e9, workers*l.wall))

	put("simd.submit_ms_p50", l.submitMS)
	put("simd.cold_job_ms_p50", l.coldMS)
	put("simd.first_cell_ms_p50", l.firstCellMS)
	put("simd.cached_job_ms_p50", l.cachedP50)
	put("simd.cached_job_ms_p90", l.cachedP90)
	put("simd.stream_bytes", float64(l.streamBytes))
	put("simd.cache_hit_frac", ratio(d["simd_hits"], d["simd_hits"]+d["simd_misses"]))

	put("runtime.gc_cpu_s", d["gc_cpu"])
	put("runtime.alloc_mb", d["alloc_bytes"]/(1<<20))
	put("runtime.heap_peak_mb", l.heapPeakMB)
	put("runtime.gc_cycles", d["gc_cycles"])
	put("runtime.rss_peak_mb", rssPeakMB())

	put("trace.overhead_frac", l.overhead)
}

// rssPeakMB is the process's peak resident set (VmHWM), or 0 where
// /proc is unavailable.
func rssPeakMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
