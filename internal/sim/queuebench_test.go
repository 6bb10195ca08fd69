package sim

import (
	"testing"
	"time"
)

// benchQueueChurn drives a steady-state churn (pop one, push one) at a
// given pending population with protocol-like uniform delays.
func benchQueueChurn(b *testing.B, pending int) {
	e := NewEngine(1)
	e.HintHorizon(1600 * time.Millisecond)
	rng := NewRNG(1, "queuebench")
	delays := make([]time.Duration, 8192)
	for i := range delays {
		delays[i] = 20*time.Millisecond + time.Duration(rng.Int63n(int64(180*time.Millisecond)))
	}
	e.SetHandler(func(int32, int32) {})
	for i := 0; i < pending; i++ {
		e.ScheduleFn(delays[i%len(delays)], 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.ScheduleFn(delays[i%len(delays)], 0, 0)
	}
}

func BenchmarkQueueChurnCalendar16k(b *testing.B) { benchQueueChurn(b, 16384) }
func BenchmarkQueueChurnCalendar1k(b *testing.B)  { benchQueueChurn(b, 1024) }

// BenchmarkQueueMeanFieldBurst replays the scheduling shape the sparse
// protocol path had when each mean-field delivery was one event (3.3M
// per 50k-node round; its deliveries now wait in per-receiver logs, and
// a round schedules only its phase timers). It runs a fresh engine per
// op: four step instants 1.3 s apart, each scheduling 250 sources × 1000
// receivers at delays drawn from a 4096-entry table of 0.3–3 s
// multi-hop sums (see meanFieldDelays), so most events take the far
// ring and hundreds share each timestamp, then a drain. It reports ns
// per event alongside the allocation figures.
func BenchmarkQueueMeanFieldBurst(b *testing.B) {
	const steps, perStep = 4, 250 * 1000
	rng := NewRNG(1, "queuebench.meanfield")
	delays := meanFieldDelays(rng)
	picks := make([]time.Duration, steps*perStep)
	for i := range picks {
		picks[i] = delays[rng.Intn(len(delays))]
	}
	fn := func(int32, int32) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		e.SetHandler(fn)
		e.HintHorizon(3 * time.Second)
		for s := 0; s < steps; s++ {
			for _, d := range picks[s*perStep : (s+1)*perStep] {
				e.ScheduleFn(d, 0, 0)
			}
			e.Run(e.Now() + 1300*time.Millisecond)
		}
		e.Run(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*perStep), "ns/event")
}
