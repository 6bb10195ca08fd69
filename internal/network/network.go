// Package network simulates Algorand's peer-to-peer gossip layer on top
// of the discrete-event engine: a random k-peer topology (the paper's
// simulations gossip to 5 random peers), per-hop message delays, relay
// with de-duplication, per-node relay policies (defectors stay online but
// refuse to forward), and offline nodes.
package network

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/sim"
)

// Kind tags the four Algorand message types.
type Kind uint8

// Message kinds defined by the Algorand communication protocol.
const (
	KindTransaction Kind = iota + 1
	KindVote
	KindProposal
	KindCredential
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTransaction:
		return "transaction"
	case KindVote:
		return "vote"
	case KindProposal:
		return "proposal"
	case KindCredential:
		return "credential"
	default:
		return "unknown"
	}
}

// Message is one gossiped payload. ID must uniquely identify the message
// for de-duplication; Payload is interpreted by the protocol layer.
type Message struct {
	ID      [32]byte
	Kind    Kind
	Origin  int
	Payload any
}

// Handler receives messages delivered to a node.
type Handler func(node int, msg Message)

// DelayModel samples per-hop propagation delays.
type DelayModel interface {
	// Sample draws one hop delay.
	Sample(rng *rand.Rand) time.Duration
}

// BoundedDelay is an optional DelayModel extension reporting the largest
// delay Sample can return. The network uses it to size the simulation
// engine's calendar-queue horizon (sim.Engine.HintHorizon) so every hop
// delivery takes the O(1) bucket route; models without a bound still work
// through the engine's adaptive resizing.
type BoundedDelay interface {
	MaxDelay() time.Duration
}

// UniformDelay samples uniformly from [Min, Max].
type UniformDelay struct {
	Min, Max time.Duration
}

var (
	_ DelayModel   = UniformDelay{}
	_ BoundedDelay = UniformDelay{}
)

// Sample implements DelayModel.
func (d UniformDelay) Sample(rng *rand.Rand) time.Duration {
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + time.Duration(rng.Int63n(int64(d.Max-d.Min)))
}

// MaxDelay implements BoundedDelay.
func (d UniformDelay) MaxDelay() time.Duration {
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Max
}

// HeavyTailDelay is a uniform base delay with a probability SlowProb of a
// SlowFactor-times slower hop, modelling congested links. The tail is what
// makes a small fraction of honest nodes occasionally miss step timeouts,
// as observed in the paper's simulations.
type HeavyTailDelay struct {
	Base       UniformDelay
	SlowProb   float64
	SlowFactor float64
}

var (
	_ DelayModel   = HeavyTailDelay{}
	_ BoundedDelay = HeavyTailDelay{}
)

// Sample implements DelayModel.
func (d HeavyTailDelay) Sample(rng *rand.Rand) time.Duration {
	base := d.Base.Sample(rng)
	if d.SlowProb > 0 && rng.Float64() < d.SlowProb {
		return time.Duration(float64(base) * d.SlowFactor)
	}
	return base
}

// MaxDelay implements BoundedDelay.
func (d HeavyTailDelay) MaxDelay() time.Duration {
	base := d.Base.MaxDelay()
	if d.SlowProb > 0 && d.SlowFactor > 1 {
		return time.Duration(float64(base) * d.SlowFactor)
	}
	return base
}

// Config parameterises a Network.
type Config struct {
	// N is the number of nodes.
	N int
	// Fanout is the number of random peers each node pushes to (paper: 5).
	Fanout int
	// Delay models per-hop latency.
	Delay DelayModel
	// LossProb is the per-hop probability that a push is dropped,
	// modelling queue overflow and per-link timeouts. Losses are sampled
	// independently per (message, link), so reachability per message is a
	// percolation process whose branching factor shrinks as defectors stop
	// relaying — the coupling through which defection degrades synchrony.
	LossProb float64
	// Arena optionally recycles construction-heavy network state (the
	// topology's peer lists, the relay/online tables) across consecutive
	// runs of one run-pool worker. Nil builds everything fresh; see Arena
	// for the determinism contract.
	Arena *Arena
}

// Arena is a pool recycling a Network's construction-time allocations
// between runs (protocol.Arena holds one): the peer-list backing store
// (one flat slab instead of N small slices) and the relay/online tables.
// It is semantically transparent — every recycled buffer is fully
// overwritten before first read, and topology generation consumes the
// exact same rng draw sequence with or without an arena, so results stay
// bit-for-bit identical. Like protocol.Arena, an Arena is owned by one
// goroutine and must not back two live Networks at once.
type Arena struct {
	peers  [][]int
	flat   []int
	relay  []bool
	online []bool
	// msgs recycles the message table; New starts it over empty.
	msgs msgTable
	// seen recycles the gossip de-duplication tables: the slot table and
	// delivery bitsets grow to steady state once and are then re-adopted
	// (epoch-retired, never re-allocated) by every subsequent Network the
	// arena backs. Dedup state holds no randomness, so recycling it is
	// output-invisible like the rest of the arena.
	seen deliveredSet
}

// Release empties the message table, whose payloads belong to the last
// network the arena backed; the topology and dedup buffers stay.
func (a *Arena) Release() {
	clear(a.msgs.msgs)
	a.msgs.msgs = a.msgs.msgs[:0]
	a.msgs.inflight = 0
}

// takeBools returns a length-n buffer from store, growing it as needed.
// Contents are unspecified: callers overwrite every slot.
func takeBools(store *[]bool, n int) []bool {
	if cap(*store) < n {
		*store = make([]bool, n)
	}
	*store = (*store)[:n]
	return *store
}

// Stats counts network activity for the cost model and for debugging.
// A push to a peer that already holds the message is never scheduled
// (see push) but counts exactly as its dropped delivery would have: in
// Sent, then in Duplicate, or in DroppedOffline when the peer is offline
// at push time.
type Stats struct {
	Sent           uint64 // messages pushed onto links
	Delivered      uint64 // first-time deliveries to a node
	Duplicate      uint64 // duplicate deliveries, suppressed at push time or dropped on arrival
	DroppedOffline uint64 // deliveries to offline nodes
	DroppedLoss    uint64 // pushes lost to per-hop loss (base + overlay bursts)
	DroppedFault   uint64 // pushes severed by the fault overlay (partitions/eclipses)
}

// Network is the simulated gossip fabric. It is single-threaded on top of
// the sim engine.
type Network struct {
	cfg      Config
	engine   *sim.Engine
	rng      *rand.Rand
	peers    [][]int
	handler  Handler
	relay    []bool
	online   []bool
	seen     *deliveredSet
	factor   float64
	stats    Stats
	observer func(node int)
	// overlay is the optional fault-injection seam (see SetOverlay);
	// overlayScale is the largest delay multiplier it may apply, folded
	// into the horizon hint.
	overlay      FaultOverlay
	overlayScale float64
	// msgs holds the relayed messages that scheduled deliveries refer to
	// by index.
	msgs *msgTable
}

// msgTable is a network's message table. A delivery is one scheduler
// event carrying (peer, index into msgs), so relaying a message
// allocates nothing and the event holds no pointer.
type msgTable struct {
	msgs []Message
	// inflight counts deliveries scheduled and not yet returned. The
	// table starts over only while it is zero, so an index can never
	// name a different message than the one it was scheduled with —
	// whenever the caller resets the dedup state.
	inflight int
}

// add appends msg to the table and returns its index, first emptying the
// table when no delivery refers to it.
func (t *msgTable) add(msg Message) int32 {
	if t.inflight == 0 {
		clear(t.msgs)
		t.msgs = t.msgs[:0]
	}
	t.msgs = append(t.msgs, msg)
	return int32(len(t.msgs) - 1)
}

// SetRelayObserver installs a callback invoked each time a node relays a
// message to its peers; the protocol layer uses it to count gossiping
// work (cost c_go).
func (n *Network) SetRelayObserver(fn func(node int)) {
	n.observer = fn
}

// ErrBadConfig flags an invalid network configuration.
var ErrBadConfig = errors.New("network: invalid config")

// New builds a network with a fresh random topology: each node chooses
// Fanout distinct outbound peers (never itself). Gossip is push-based
// along these outbound edges, matching the paper's "each node sends the
// messages to 5 other nodes that are randomly selected". The network
// installs itself as engine's delivery handler (sim.Engine.SetHandler),
// so an engine carries one network at a time. Node ids travel in
// scheduler events as int32, so N may not exceed math.MaxInt32.
func New(cfg Config, engine *sim.Engine, handler Handler) (*Network, error) {
	if cfg.N < 2 || cfg.N > math.MaxInt32 || cfg.Fanout < 1 || cfg.Delay == nil || engine == nil || handler == nil {
		return nil, ErrBadConfig
	}
	if !(cfg.LossProb >= 0 && cfg.LossProb < 1) { // NaN fails both
		return nil, ErrBadConfig
	}
	if cfg.Fanout >= cfg.N {
		cfg.Fanout = cfg.N - 1
	}
	rng := engine.RNG("network.topology")
	var relay, online []bool
	if ar := cfg.Arena; ar != nil {
		relay = takeBools(&ar.relay, cfg.N)
		online = takeBools(&ar.online, cfg.N)
	} else {
		relay = make([]bool, cfg.N)
		online = make([]bool, cfg.N)
	}
	n := &Network{
		cfg:          cfg,
		engine:       engine,
		rng:          engine.RNG("network.delays"),
		peers:        buildTopology(cfg.N, cfg.Fanout, rng, cfg.Arena),
		handler:      handler,
		relay:        relay,
		online:       online,
		factor:       1,
		overlayScale: 1,
	}
	if ar := cfg.Arena; ar != nil {
		ar.seen.adopt(cfg.N)
		n.seen = &ar.seen
		// A previous network's deliveries died with its engine's Reset,
		// so the table empties at the first add.
		ar.msgs.inflight = 0
		n.msgs = &ar.msgs
	} else {
		n.seen = &deliveredSet{}
		n.seen.init(cfg.N)
		n.msgs = &msgTable{}
	}
	for i := 0; i < cfg.N; i++ {
		n.relay[i] = true
		n.online[i] = true
	}
	engine.SetHandler(n.deliver)
	n.hintHorizon()
	return n, nil
}

// hintHorizon sizes the engine's calendar ring to the worst-case hop
// delay under the current delay factor, keeping every delivery event on
// the O(1) bucket route. Called at construction and whenever the factor
// changes; no-op for unbounded delay models.
func (n *Network) hintHorizon() {
	if bd, ok := n.cfg.Delay.(BoundedDelay); ok {
		if d := bd.MaxDelay(); d > 0 {
			n.engine.HintHorizon(time.Duration(float64(d) * n.factor * n.overlayScale))
		}
	}
}

// buildTopology draws each node's fanout distinct outbound peers. The
// duplicate check is a linear scan over the node's (at most fanout-1)
// picks so far: at gossip fanouts a scan beats a throwaway map per node,
// and it lets an arena recycle one flat slab for every peer list.
// Draw-consumption is load-bearing — a duplicate or self pick burns one
// rng draw without extending the list, exactly as the original map
// version did, so topologies are bit-identical across both versions and
// with or without an arena.
func buildTopology(n, fanout int, rng *rand.Rand, ar *Arena) [][]int {
	var peers [][]int
	var flat []int
	if ar != nil {
		if cap(ar.peers) < n {
			ar.peers = make([][]int, n)
		}
		peers = ar.peers[:n]
		if cap(ar.flat) < n*fanout {
			ar.flat = make([]int, 0, n*fanout)
		}
		flat = ar.flat[:0]
	} else {
		peers = make([][]int, n)
		flat = make([]int, 0, n*fanout)
	}
	for i := range peers {
		start := len(flat)
	draw:
		for len(flat)-start < fanout {
			p := rng.Intn(n)
			if p == i {
				continue
			}
			for _, q := range flat[start:] {
				if q == p {
					continue draw
				}
			}
			flat = append(flat, p)
		}
		list := flat[start:len(flat):len(flat)]
		// Deterministic order: sort by index (the map-based predecessor
		// sorted too, so recycled and fresh topologies line up exactly).
		for a := 1; a < len(list); a++ {
			for b := a; b > 0 && list[b] < list[b-1]; b-- {
				list[b], list[b-1] = list[b-1], list[b]
			}
		}
		peers[i] = list
	}
	if ar != nil {
		ar.peers = peers
		ar.flat = flat
	}
	return peers
}

// Peers returns node i's outbound peer list (read-only view).
func (n *Network) Peers(i int) []int {
	if i < 0 || i >= len(n.peers) {
		return nil
	}
	return n.peers[i]
}

// SetRelay controls whether node i forwards gossip. Defecting nodes stay
// online (they keep receiving) but stop relaying — gossiping is one of the
// tasks with cost c_go that a defector refuses to pay.
func (n *Network) SetRelay(i int, relays bool) {
	if i >= 0 && i < len(n.relay) {
		n.relay[i] = relays
	}
}

// SetOnline controls whether node i participates at all. Offline (faulty)
// nodes neither receive nor forward.
func (n *Network) SetOnline(i int, online bool) {
	if i >= 0 && i < len(n.online) {
		n.online[i] = online
	}
}

// Online reports node i's availability.
func (n *Network) Online(i int) bool {
	return i >= 0 && i < len(n.online) && n.online[i]
}

// Relaying reports whether node i currently forwards gossip. The sparse
// committee path reads it to derive the epidemic's effective relay
// fraction (its mean-field branching factor) without touching the
// per-hop machinery.
func (n *Network) Relaying(i int) bool {
	return i >= 0 && i < len(n.relay) && n.relay[i]
}

// Fault probes the installed fault overlay for the (from, to) hop; a
// zero LinkFault means no overlay or a healthy link. Mean-field gossip
// consults it so scripted partitions and loss bursts still bite when the
// per-hop push path is bypassed.
func (n *Network) Fault(from, to int) LinkFault {
	if n.overlay == nil {
		return LinkFault{}
	}
	return n.overlay.Link(from, to)
}

// SetDelayFactor scales all sampled delays; the protocol layer uses it to
// inject weak-synchrony periods (factor >> 1) and recovery (factor 1).
// The engine's scheduling horizon follows the factor so inflated delays
// keep the O(1) bucket route.
func (n *Network) SetDelayFactor(f float64) {
	if f > 0 {
		n.factor = f
		n.hintHorizon()
	}
}

// DelayFactor returns the current delay multiplier.
func (n *Network) DelayFactor() float64 { return n.factor }

// Stats returns a copy of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// ResetSeen clears all de-duplication state; the round driver calls it
// between rounds to bound memory. The epoch stamp makes this O(nodes) —
// entries are retired in place and the tables stay sized, so steady-state
// rounds insert without growing. Call it only once gossip has drained:
// pushes suppressed as duplicates before the reset are gone, so they
// cannot deliver afresh after it.
func (n *Network) ResetSeen() {
	n.seen.reset()
}

// Gossip injects msg at node origin and propagates it through the network.
// The origin "delivers" to itself immediately (it knows its own message)
// and pushes to its peers if it relays.
func (n *Network) Gossip(origin int, msg Message) {
	if origin < 0 || origin >= n.cfg.N || !n.online[origin] {
		return
	}
	if !n.seen.mark(&msg.ID, origin) {
		return
	}
	n.stats.Delivered++
	n.handler(origin, msg)
	if n.relay[origin] {
		// One table entry serves every hop of this message's propagation;
		// deliveries hand nodes a value copy, so sharing is invisible to
		// the protocol layer.
		n.push(origin, n.msgs.add(msg))
	}
}

// push schedules delivery of message msgs[idx] to each of node i's
// peers. A peer that already holds the message received it at or before
// now, so its delivery could only pop and be dropped: push draws its
// loss and delay exactly as for any peer, keeping the random stream and
// the order of the remaining events unchanged, counts the drop, and
// elides the event.
func (n *Network) push(from int, idx int32) {
	if n.observer != nil {
		n.observer(from)
	}
	held := n.seen.find(&n.msgs.msgs[idx].ID)
	for _, peer := range n.peers[from] {
		var fault LinkFault
		if n.overlay != nil {
			fault = n.overlay.Link(from, peer)
			if fault.Drop {
				n.stats.DroppedFault++
				continue
			}
		}
		if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
			n.stats.DroppedLoss++
			continue
		}
		if fault.Loss > 0 && n.rng.Float64() < fault.Loss {
			n.stats.DroppedLoss++
			continue
		}
		delay := time.Duration(float64(n.cfg.Delay.Sample(n.rng)) * n.factor)
		if fault.DelayScale > 1 {
			delay = time.Duration(float64(delay) * fault.DelayScale)
		}
		n.stats.Sent++
		if n.seen.has(held, peer) {
			if n.online[peer] {
				n.stats.Duplicate++
			} else {
				n.stats.DroppedOffline++
			}
			n.engine.Elide(delay)
			continue
		}
		n.msgs.inflight++
		n.engine.ScheduleFn(delay, int32(peer), idx)
	}
}

// deliver is the engine's handler: message msgs[idx] reaches node peer.
// The delivery stays in flight until deliver returns, so a Gossip from
// the handler cannot empty the table under it.
func (n *Network) deliver(peer, idx int32) {
	node := int(peer)
	switch msg := &n.msgs.msgs[idx]; {
	case !n.online[node]:
		n.stats.DroppedOffline++
	case !n.seen.mark(&msg.ID, node):
		n.stats.Duplicate++
	default:
		n.stats.Delivered++
		n.handler(node, *msg)
		if n.relay[node] {
			n.push(node, idx)
		}
	}
	n.msgs.inflight--
}
