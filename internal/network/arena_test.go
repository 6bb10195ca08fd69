package network

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

// TestArenaTopologyBitIdentical pins the arena transparency contract at
// the topology level: a network built on a warm arena (carrying a
// previous, differently-sized run's slabs) must draw exactly the peer
// lists a fresh build does, because duplicate and self picks burn rng
// draws identically in both paths.
func TestArenaTopologyBitIdentical(t *testing.T) {
	h := func(int, Message) {}
	delay := UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond}

	ar := &Arena{}
	// Warm the arena with a larger run so recycled slabs carry stale data.
	if _, err := New(Config{N: 120, Fanout: 7, Delay: delay, Arena: ar}, sim.NewEngine(9), h); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Config{N: 60, Fanout: 5, Delay: delay}, sim.NewEngine(42), h)
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := New(Config{N: 60, Fanout: 5, Delay: delay, Arena: ar}, sim.NewEngine(42), h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if !reflect.DeepEqual(fresh.Peers(i), recycled.Peers(i)) {
			t.Fatalf("node %d peers diverge: fresh %v, recycled %v", i, fresh.Peers(i), recycled.Peers(i))
		}
	}
}

// TestArenaNewAllocatesNoTables pins that a network built on a warm
// arena takes its relay and online tables and its topology from the
// arena alone: at 20k nodes and fanout 5, building any of them afresh
// allocates at least 20 KB (the four together ≈1.3 MB), while the rest of
// New (two RNG streams, the Network itself) takes about 11 KB.
func TestArenaNewAllocatesNoTables(t *testing.T) {
	const n = 20_000
	cfg := Config{N: n, Fanout: 5, Delay: UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond}, Arena: &Arena{}}
	h := func(int, Message) {}
	engine := sim.NewEngine(1)
	if _, err := New(cfg, engine, h); err != nil {
		t.Fatal(err)
	}
	engine.Reset(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(cfg, engine, h); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n {
		t.Errorf("New on a warm arena allocated %d bytes at n=%d; want under %d", got, n, n)
	}
}

// TestReleasedArenaHoldsNoPayload pins Arena.Release: the message table
// keeps the last network's payloads reachable until Release empties it.
func TestReleasedArenaHoldsNoPayload(t *testing.T) {
	ar := &Arena{}
	collected := make(chan struct{}, 1)
	func() {
		engine := sim.NewEngine(3)
		net, err := New(Config{N: 40, Fanout: 5, Delay: UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond}, Arena: ar},
			engine, func(int, Message) {})
		if err != nil {
			t.Fatal(err)
		}
		payload := &[8]int64{}
		runtime.SetFinalizer(payload, func(*[8]int64) { collected <- struct{}{} })
		net.Gossip(0, Message{ID: [32]byte{1}, Payload: payload})
		engine.Run(time.Second)
	}()
	ar.Release()
	for tries := 0; tries < 50; tries++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(ar)
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a released arena still holds its last network's payload")
}

// TestArenaSeenRecycleBitIdentical pins the dedup-table recycling: one
// arena alternating between populations on either side of the 512-node
// inline-bitmap window (where the per-slot stride changes and the table
// must be dropped) and re-running the small population (where the grown
// table is retained wholesale) must produce delivery traces and stats
// identical to fresh networks every time.
func TestArenaSeenRecycleBitIdentical(t *testing.T) {
	run := func(ar *Arena, n int, seed int64) (*recorder, Stats) {
		engine := sim.NewEngine(seed)
		rec := newRecorder()
		net, err := New(Config{
			N:        n,
			Fanout:   5,
			Delay:    UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond},
			LossProb: 0.05,
			Arena:    ar,
		}, engine, rec.handle)
		if err != nil {
			t.Fatal(err)
		}
		for wave := byte(0); wave < 3; wave++ {
			net.Gossip(int(wave), Message{ID: [32]byte{wave + 1}, Kind: KindVote, Origin: int(wave)})
			engine.Run(0)
			net.ResetSeen()
		}
		return rec, net.Stats()
	}

	ar := &Arena{}
	// small → large → small: two stride changes plus one same-size reuse.
	for i, n := range []int{80, 600, 80, 80} {
		seed := int64(11 + i)
		freshRec, freshStats := run(nil, n, seed)
		recycledRec, recycledStats := run(ar, n, seed)
		if !reflect.DeepEqual(freshRec.delivered, recycledRec.delivered) {
			t.Fatalf("pass %d (n=%d): delivery traces diverge between fresh and recycled networks", i, n)
		}
		if freshStats != recycledStats {
			t.Fatalf("pass %d (n=%d): stats diverge: fresh %+v, recycled %+v", i, n, freshStats, recycledStats)
		}
	}
}

// TestArenaGossipBitIdentical runs a full gossip wave on fresh and
// recycled networks and compares delivery traces and stats.
func TestArenaGossipBitIdentical(t *testing.T) {
	run := func(ar *Arena) (*recorder, Stats) {
		engine := sim.NewEngine(7)
		rec := newRecorder()
		net, err := New(Config{
			N:        80,
			Fanout:   5,
			Delay:    UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond},
			LossProb: 0.1,
			Arena:    ar,
		}, engine, rec.handle)
		if err != nil {
			t.Fatal(err)
		}
		net.Gossip(3, Message{ID: [32]byte{1}, Kind: KindProposal, Origin: 3})
		engine.Run(0)
		return rec, net.Stats()
	}

	ar := &Arena{}
	run(ar) // warm pass populates the arena
	table := &ar.msgs.msgs[:1][0]
	freshRec, freshStats := run(nil)
	recycledRec, recycledStats := run(ar)
	if &ar.msgs.msgs[:1][0] != table {
		t.Fatal("recycled network did not reuse the arena's message table")
	}
	if !reflect.DeepEqual(freshRec.delivered, recycledRec.delivered) {
		t.Fatal("delivery traces diverge between fresh and recycled networks")
	}
	if freshStats != recycledStats {
		t.Fatalf("stats diverge: fresh %+v, recycled %+v", freshStats, recycledStats)
	}
}
