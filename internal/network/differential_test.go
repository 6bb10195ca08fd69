package network

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

// refNetwork is the reference model of gossip as it ran before pushes to
// peers already holding a message were suppressed: every push that
// survives loss is scheduled, and duplicates are dropped when they
// arrive. De-duplication is a plain map. It reuses a Network's topology
// and draws from its own engine's "network.delays" stream, so on an
// engine with the same seed it sees the same randomness.
type refNetwork struct {
	engine   *sim.Engine
	rng      *rand.Rand
	peers    func(int) []int
	delay    DelayModel
	loss     float64
	relay    []bool
	online   []bool
	factor   float64
	overlay  FaultOverlay
	seen     map[refSeenKey]bool
	stats    Stats
	handler  Handler
	observer func(node int)
}

type refSeenKey struct {
	id   [32]byte
	node int
}

func newRefNetwork(net *Network, cfg Config, engine *sim.Engine, handler Handler) *refNetwork {
	ref := &refNetwork{
		engine:  engine,
		rng:     engine.RNG("network.delays"),
		peers:   net.Peers,
		delay:   cfg.Delay,
		loss:    cfg.LossProb,
		relay:   make([]bool, cfg.N),
		online:  make([]bool, cfg.N),
		factor:  1,
		seen:    make(map[refSeenKey]bool),
		handler: handler,
	}
	for i := range ref.relay {
		ref.relay[i] = true
		ref.online[i] = true
	}
	return ref
}

func (n *refNetwork) mark(id [32]byte, node int) bool {
	k := refSeenKey{id, node}
	if n.seen[k] {
		return false
	}
	n.seen[k] = true
	return true
}

func (n *refNetwork) Gossip(origin int, msg Message) {
	if !n.online[origin] || !n.mark(msg.ID, origin) {
		return
	}
	n.stats.Delivered++
	n.handler(origin, msg)
	if n.relay[origin] {
		n.push(origin, msg)
	}
}

func (n *refNetwork) push(from int, msg Message) {
	if n.observer != nil {
		n.observer(from)
	}
	for _, peer := range n.peers(from) {
		var fault LinkFault
		if n.overlay != nil {
			fault = n.overlay.Link(from, peer)
			if fault.Drop {
				n.stats.DroppedFault++
				continue
			}
		}
		if n.loss > 0 && n.rng.Float64() < n.loss {
			n.stats.DroppedLoss++
			continue
		}
		if fault.Loss > 0 && n.rng.Float64() < fault.Loss {
			n.stats.DroppedLoss++
			continue
		}
		delay := time.Duration(float64(n.delay.Sample(n.rng)) * n.factor)
		if fault.DelayScale > 1 {
			delay = time.Duration(float64(delay) * fault.DelayScale)
		}
		n.stats.Sent++
		peer := peer
		n.engine.Schedule(delay, func() { n.deliver(peer, msg) })
	}
}

func (n *refNetwork) deliver(node int, msg Message) {
	if !n.online[node] {
		n.stats.DroppedOffline++
		return
	}
	if !n.mark(msg.ID, node) {
		n.stats.Duplicate++
		return
	}
	n.stats.Delivered++
	n.handler(node, msg)
	if n.relay[node] {
		n.push(node, msg)
	}
}

// hashOverlay is a deterministic fault overlay: a fixed share of links
// is severed, lossy or delay-spiked, chosen by hashing the hop.
type hashOverlay struct{ salt int }

func (o hashOverlay) Link(from, to int) LinkFault {
	switch h := (from*7919 + to*104729 + o.salt) % 100; {
	case h < 6:
		return LinkFault{Drop: true}
	case h < 16:
		return LinkFault{Loss: 0.4}
	case h < 26:
		return LinkFault{DelayScale: 3}
	}
	return LinkFault{}
}

// gossipEvent is one observable network effect: a handler call
// (relay=false) or a relay-observer call (relay=true), at virtual time at.
type gossipEvent struct {
	node  int
	id    [32]byte
	at    time.Duration
	relay bool
}

// TestNetworkMatchesScheduleEveryPushReference drives the network and
// the schedule-every-push reference model through the same random
// scenarios — topologies on both sides of the 512-node inline-bitmap
// window, base loss, fault-overlay drops, losses and delay spikes,
// delay-factor changes, non-relaying and offline nodes, relay flips
// while messages are in flight, overlapping waves and re-gossiped IDs —
// and requires identical handler and relay-observer calls (node, message
// ID, virtual time), identical Stats, and identical clocks after every
// drain, while the network schedules fewer events.
func TestNetworkMatchesScheduleEveryPushReference(t *testing.T) {
	for _, n := range []int{50, 600} {
		for seed := int64(1); seed <= 4; seed++ {
			n, seed := n, seed
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				diffAgainstReference(t, n, seed)
			})
		}
	}
}

func diffAgainstReference(t *testing.T, n int, seed int64) {
	r := rand.New(rand.NewSource(seed * 977))
	cfg := Config{
		N:        n,
		Fanout:   2 + r.Intn(6),
		Delay:    HeavyTailDelay{Base: UniformDelay{Min: time.Millisecond, Max: 20 * time.Millisecond}, SlowProb: 0.1, SlowFactor: 5},
		LossProb: []float64{0, 0.05, 0.3}[r.Intn(3)],
	}
	var got, want []gossipEvent
	realEngine, refEngine := sim.NewEngine(seed), sim.NewEngine(seed)
	net, err := New(cfg, realEngine, func(node int, msg Message) {
		got = append(got, gossipEvent{node: node, id: msg.ID, at: realEngine.Now()})
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNetwork(net, cfg, refEngine, func(node int, msg Message) {
		want = append(want, gossipEvent{node: node, id: msg.ID, at: refEngine.Now()})
	})
	net.SetRelayObserver(func(node int) {
		got = append(got, gossipEvent{node: node, at: realEngine.Now(), relay: true})
	})
	ref.observer = func(node int) {
		want = append(want, gossipEvent{node: node, at: refEngine.Now(), relay: true})
	}
	if seed%2 == 0 {
		o := hashOverlay{salt: int(seed)}
		net.SetOverlay(o, 3)
		ref.overlay = o
	}
	setRelay := func(i int, v bool) { net.SetRelay(i, v); ref.relay[i] = v }
	setOnline := func(i int, v bool) { net.SetOnline(i, v); ref.online[i] = v }
	for i := 0; i < n; i++ {
		if r.Float64() < 0.25 {
			setRelay(i, false)
		}
		if r.Float64() < 0.05 {
			setOnline(i, false)
		}
	}

	drain := func(wave int, phase string) {
		t.Helper()
		realEngine.Run(0)
		refEngine.Run(0)
		if len(got) != len(want) {
			t.Fatalf("wave %d %s: %d events, reference %d", wave, phase, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("wave %d %s event %d: %+v, reference %+v", wave, phase, i, got[i], want[i])
			}
		}
		if net.Stats() != ref.stats {
			t.Fatalf("wave %d %s: stats %+v, reference %+v", wave, phase, net.Stats(), ref.stats)
		}
		if realEngine.Now() != refEngine.Now() {
			t.Fatalf("wave %d %s: clock %v after drain, reference %v", wave, phase, realEngine.Now(), refEngine.Now())
		}
	}
	gossipAt := func(origin int, id [32]byte) {
		msg := Message{ID: id, Kind: KindVote, Origin: origin}
		at := time.Duration(r.Intn(40)) * time.Millisecond
		realEngine.Schedule(at, func() { net.Gossip(origin, msg) })
		refEngine.Schedule(at, func() { ref.Gossip(origin, msg) })
	}
	// Online state changes only while nothing is in flight: a suppressed
	// push is classified by its peer's online state at push time.
	flipOnline := func() {
		for k := 0; k < n/10; k++ {
			setOnline(r.Intn(n), r.Float64() < 0.7)
		}
	}

	for wave := 0; wave < 5; wave++ {
		factor := []float64{1, 1, 4}[r.Intn(3)]
		net.SetDelayFactor(factor)
		ref.factor = factor
		flipOnline()
		var ids [][32]byte
		msgs := 1 + r.Intn(6)
		for m := 0; m < msgs; m++ {
			id := id32(uint64(wave*100 + m + 1))
			ids = append(ids, id)
			gossipAt(r.Intn(n), id)
			if r.Float64() < 0.2 {
				gossipAt(r.Intn(n), id) // the same ID injected at a second origin
			}
		}
		// Relay flips while messages are in flight (adaptive corruption
		// flips behaviour mid-step).
		for k := 0; k < 3; k++ {
			node, relays := r.Intn(n), r.Float64() < 0.5
			at := time.Duration(r.Intn(60)) * time.Millisecond
			realEngine.Schedule(at, func() { net.SetRelay(node, relays) })
			refEngine.Schedule(at, func() { ref.relay[node] = relays })
		}
		drain(wave, "first pass")
		// Without a reset, take some holders offline and re-gossip the
		// wave's IDs from nodes they missed: pushes now reach offline
		// nodes that already hold the message.
		flipOnline()
		for _, id := range ids {
			gossipAt(r.Intn(n), id)
		}
		drain(wave, "second pass")
		net.ResetSeen()
		clear(ref.seen)
	}
	if net.Stats().Duplicate == 0 {
		t.Fatal("scenario produced no duplicates; nothing was compared")
	}
	if sched, refSched := realEngine.SchedStats().Scheduled, refEngine.SchedStats().Scheduled; sched >= refSched {
		t.Fatalf("network scheduled %d events, reference %d: duplicates were not suppressed", sched, refSched)
	}
}
