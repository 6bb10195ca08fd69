package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestResetMatchesFresh pins the arena-recycling contract: an engine
// rewound with Reset — after a full drain or mid-run with events still
// queued, and with whatever ring geometry the previous run grew — must
// execute a program in exactly the order a brand-new engine does.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := NewRNG(seed, "differential.reset")
			delays := func() time.Duration {
				// Mixed near/far so the warm-up touches both rungs (and can
				// trigger resizes the recycled run inherits).
				if rng.Intn(2) == 0 {
					return time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
				}
				return time.Duration(rng.Int63n(int64(13 * time.Second)))
			}
			warm := genOps(rng, 200, 2, delays)
			ops := genOps(rng, 300, 3, delays)

			fresh := runProgram(t, ops, 0)

			recycled := NewEngine(99)
			warmRun := newRefEngine(t, recycled)
			for i := range warm {
				schedule(warmRun, &warm[i])
			}
			if seed%2 == 0 {
				// Abandon mid-run: Reset must drop the queued remainder.
				warmRun.Run(recycled.Now() + 300*time.Millisecond)
			} else {
				warmRun.Run(0)
			}

			recycled.Reset(1) // runProgram's engines use seed 1
			if recycled.Now() != 0 || recycled.SchedStats().Executed != 0 || recycled.Pending() != 0 {
				t.Fatalf("Reset left state: now=%v executed=%d pending=%d",
					recycled.Now(), recycled.SchedStats().Executed, recycled.Pending())
			}
			run := newRefEngine(t, recycled)
			for i := range ops {
				schedule(run, &ops[i])
			}
			run.Run(0)
			log := run.order

			if len(log) != len(fresh) {
				t.Fatalf("recycled executed %d events, fresh %d", len(log), len(fresh))
			}
			for i := range log {
				if log[i] != fresh[i] {
					t.Fatalf("pop order diverges at step %d: recycled ran %d, fresh ran %d", i, log[i], fresh[i])
				}
			}
		})
	}
}

// TestResetRNGStreams pins that Reset rebinds the labelled random
// streams to the new seed exactly as NewEngine would.
func TestResetRNGStreams(t *testing.T) {
	a := NewEngine(3)
	a.Schedule(time.Second, func() {})
	a.Run(0)
	a.Reset(17)
	b := NewEngine(17)
	ra, rb := a.RNG("protocol"), b.RNG("protocol")
	for i := 0; i < 32; i++ {
		if x, y := ra.Int63(), rb.Int63(); x != y {
			t.Fatalf("draw %d: reset stream %d, fresh stream %d", i, x, y)
		}
	}
}
