package network

import (
	"math"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

type recorder struct {
	delivered map[int][][32]byte
}

func newRecorder() *recorder {
	return &recorder{delivered: make(map[int][][32]byte)}
}

func (r *recorder) handle(node int, msg Message) {
	r.delivered[node] = append(r.delivered[node], msg.ID)
}

func build(t *testing.T, n, fanout int, loss float64) (*Network, *sim.Engine, *recorder) {
	t.Helper()
	engine := sim.NewEngine(1)
	rec := newRecorder()
	net, err := New(Config{
		N:        n,
		Fanout:   fanout,
		Delay:    UniformDelay{Min: time.Millisecond, Max: 10 * time.Millisecond},
		LossProb: loss,
	}, engine, rec.handle)
	if err != nil {
		t.Fatal(err)
	}
	return net, engine, rec
}

func TestConfigValidation(t *testing.T) {
	engine := sim.NewEngine(1)
	h := func(int, Message) {}
	cases := []Config{
		{N: 1, Fanout: 1, Delay: UniformDelay{}},
		{N: 10, Fanout: 0, Delay: UniformDelay{}},
		{N: 10, Fanout: 3},
		{N: 10, Fanout: 3, Delay: UniformDelay{}, LossProb: 1},
		{N: 10, Fanout: 3, Delay: UniformDelay{}, LossProb: -0.1},
		{N: 10, Fanout: 3, Delay: UniformDelay{}, LossProb: math.NaN()},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, engine, h); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	if _, err := New(Config{N: 10, Fanout: 3, Delay: UniformDelay{}}, nil, h); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(Config{N: 10, Fanout: 3, Delay: UniformDelay{}}, engine, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

// TestNewRejectsHugePopulation: node ids travel in scheduler events as
// int32, so New refuses a population beyond math.MaxInt32 before it
// allocates anything.
func TestNewRejectsHugePopulation(t *testing.T) {
	engine := sim.NewEngine(1)
	cfg := Config{N: math.MaxInt32 + 1, Fanout: 5, Delay: UniformDelay{Max: time.Millisecond}}
	h := func(int, Message) {}
	var err error
	allocs := testing.AllocsPerRun(1, func() { _, err = New(cfg, engine, h) })
	if err != ErrBadConfig || allocs != 0 {
		t.Fatalf("N = MaxInt32+1: err %v after %v allocations, want ErrBadConfig and none", err, allocs)
	}
}

// TestMessageTableSurvivesMidFlightReset resets the dedup state while a
// message's deliveries are still in flight and gossips a second one: the
// pending deliveries keep carrying the first message, because the table
// starts over only once nothing is in flight.
func TestMessageTableSurvivesMidFlightReset(t *testing.T) {
	net, engine, _ := build(t, 50, 5, 0)
	a, b, c := Message{ID: [32]byte{1}, Payload: "a"}, Message{ID: [32]byte{2}, Payload: "b"}, Message{ID: [32]byte{3}, Payload: "c"}
	payloads := map[[32]byte]any{a.ID: "a", b.ID: "b", c.ID: "c"}
	var late int
	net.handler = func(_ int, msg Message) {
		if msg.Payload != payloads[msg.ID] {
			t.Fatalf("message %x carries payload %v", msg.ID[0], msg.Payload)
		}
		if msg.ID == a.ID && engine.Now() > 5*time.Millisecond {
			late++
		}
	}
	net.Gossip(0, a)
	engine.Run(5 * time.Millisecond)
	if net.msgs.inflight == 0 {
		t.Fatal("setup: nothing in flight at the reset")
	}
	net.ResetSeen()
	net.Gossip(1, b)
	if len(net.msgs.msgs) != 2 || net.msgs.msgs[0].ID != a.ID {
		t.Fatalf("gossip in flight emptied the table: %d messages", len(net.msgs.msgs))
	}
	engine.Run(0)
	if late == 0 {
		t.Fatal("no delivery of the first message arrived after the reset")
	}
	if net.msgs.inflight != 0 {
		t.Fatalf("%d deliveries in flight after a drain", net.msgs.inflight)
	}
	net.Gossip(2, c)
	if len(net.msgs.msgs) != 1 {
		t.Fatalf("gossip after a drain kept %d messages, want the table started over", len(net.msgs.msgs))
	}
}

func TestTopologyShape(t *testing.T) {
	net, _, _ := build(t, 50, 5, 0)
	for i := 0; i < 50; i++ {
		peers := net.Peers(i)
		if len(peers) != 5 {
			t.Fatalf("node %d has %d peers, want 5", i, len(peers))
		}
		seen := make(map[int]bool)
		for _, p := range peers {
			if p == i {
				t.Fatalf("node %d peers with itself", i)
			}
			if seen[p] {
				t.Fatalf("node %d has duplicate peer %d", i, p)
			}
			seen[p] = true
		}
	}
	if net.Peers(-1) != nil || net.Peers(50) != nil {
		t.Error("out-of-range Peers should be nil")
	}
}

func TestFanoutClamped(t *testing.T) {
	net, _, _ := build(t, 4, 10, 0)
	if len(net.Peers(0)) != 3 {
		t.Errorf("fanout not clamped: %d", len(net.Peers(0)))
	}
}

func TestGossipFullCoverageNoLoss(t *testing.T) {
	net, engine, rec := build(t, 80, 5, 0)
	net.Gossip(0, Message{ID: [32]byte{1}, Kind: KindVote, Origin: 0})
	engine.Run(0)
	if len(rec.delivered) != 80 {
		t.Errorf("delivered to %d/80 nodes", len(rec.delivered))
	}
	stats := net.Stats()
	if stats.Delivered != 80 {
		t.Errorf("Delivered = %d, want 80", stats.Delivered)
	}
	if stats.Duplicate == 0 {
		t.Error("expected duplicate suppressions in a dense gossip")
	}
}

func TestGossipDeduplication(t *testing.T) {
	net, engine, rec := build(t, 30, 5, 0)
	msg := Message{ID: [32]byte{7}, Kind: KindVote, Origin: 0}
	net.Gossip(0, msg)
	net.Gossip(0, msg) // duplicate injection is a no-op
	engine.Run(0)
	for node, ids := range rec.delivered {
		if len(ids) != 1 {
			t.Errorf("node %d received %d copies", node, len(ids))
		}
	}
}

func TestOfflineNodesReceiveNothing(t *testing.T) {
	net, engine, rec := build(t, 40, 5, 0)
	net.SetOnline(3, false)
	net.Gossip(0, Message{ID: [32]byte{2}, Kind: KindProposal, Origin: 0})
	engine.Run(0)
	if _, got := rec.delivered[3]; got {
		t.Error("offline node received a message")
	}
	if !net.Online(0) || net.Online(3) {
		t.Error("Online() state wrong")
	}
}

func TestOfflineOriginCannotGossip(t *testing.T) {
	net, engine, rec := build(t, 20, 5, 0)
	net.SetOnline(0, false)
	net.Gossip(0, Message{ID: [32]byte{3}, Kind: KindVote, Origin: 0})
	engine.Run(0)
	if len(rec.delivered) != 0 {
		t.Error("offline origin still gossiped")
	}
}

func TestNonRelayingNodesStillReceive(t *testing.T) {
	// With every non-origin node refusing to relay, only the origin's
	// direct peers hear the message.
	net, engine, rec := build(t, 60, 5, 0)
	for i := 1; i < 60; i++ {
		net.SetRelay(i, false)
	}
	net.Gossip(0, Message{ID: [32]byte{4}, Kind: KindVote, Origin: 0})
	engine.Run(0)
	if len(rec.delivered) != 6 { // origin + its 5 peers
		t.Errorf("delivered to %d nodes, want 6", len(rec.delivered))
	}
}

func TestLossReducesCoverage(t *testing.T) {
	deliveredAt := func(loss float64) int {
		net, engine, rec := build(t, 200, 5, loss)
		net.Gossip(0, Message{ID: [32]byte{5}, Kind: KindVote, Origin: 0})
		engine.Run(0)
		return len(rec.delivered)
	}
	full := deliveredAt(0)
	lossy := deliveredAt(0.6)
	// A random 5-out digraph leaves ~e^-5 of nodes with zero in-degree, so
	// a couple of nodes may be structurally unreachable even without loss.
	if full < 195 {
		t.Errorf("lossless coverage = %d/200", full)
	}
	if lossy >= full {
		t.Errorf("loss did not reduce coverage: %d >= %d", lossy, full)
	}
}

func TestDelayFactorSlowsDelivery(t *testing.T) {
	engine := sim.NewEngine(1)
	var firstDelivery time.Duration
	net, err := New(Config{
		N: 10, Fanout: 3,
		Delay: UniformDelay{Min: 100 * time.Millisecond, Max: 100 * time.Millisecond},
	}, engine, func(node int, msg Message) {
		if node != 0 && firstDelivery == 0 {
			firstDelivery = engine.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetDelayFactor(10)
	if net.DelayFactor() != 10 {
		t.Errorf("DelayFactor = %v", net.DelayFactor())
	}
	net.Gossip(0, Message{ID: [32]byte{6}, Kind: KindVote, Origin: 0})
	engine.Run(0)
	if firstDelivery != time.Second {
		t.Errorf("first delivery at %v, want 1s under 10x factor", firstDelivery)
	}
}

func TestResetSeenAllowsReuse(t *testing.T) {
	net, engine, rec := build(t, 20, 5, 0)
	msg := Message{ID: [32]byte{8}, Kind: KindVote, Origin: 0}
	net.Gossip(0, msg)
	engine.Run(0)
	first := len(rec.delivered[0])
	net.ResetSeen()
	net.Gossip(0, msg)
	engine.Run(0)
	if len(rec.delivered[0]) != first+1 {
		t.Error("ResetSeen did not clear dedup state")
	}
}

func TestUniformDelayDegenerate(t *testing.T) {
	d := UniformDelay{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if got := d.Sample(sim.NewRNG(1, "t")); got != 5*time.Millisecond {
		t.Errorf("degenerate delay = %v", got)
	}
}

func TestHeavyTailDelay(t *testing.T) {
	d := HeavyTailDelay{
		Base:       UniformDelay{Min: 10 * time.Millisecond, Max: 10 * time.Millisecond},
		SlowProb:   1,
		SlowFactor: 7,
	}
	if got := d.Sample(sim.NewRNG(1, "t")); got != 70*time.Millisecond {
		t.Errorf("slow hop = %v, want 70ms", got)
	}
	d.SlowProb = 0
	if got := d.Sample(sim.NewRNG(1, "t")); got != 10*time.Millisecond {
		t.Errorf("fast hop = %v, want 10ms", got)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindTransaction: "transaction",
		KindVote:        "vote",
		KindProposal:    "proposal",
		KindCredential:  "credential",
		Kind(99):        "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
