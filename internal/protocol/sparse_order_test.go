package protocol

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
)

// pinOverlay is a deterministic fault overlay mixing the three link
// verdicts mean-field gossip honours: severed links, lossy links and
// delay-spiked links.
type pinOverlay struct{}

func (pinOverlay) Link(from, to int) network.LinkFault {
	switch {
	case (from+to)%17 == 0:
		return network.LinkFault{Drop: true}
	case (3*from+to)%13 == 0:
		return network.LinkFault{Loss: 0.5}
	case (from+2*to)%11 == 0:
		return network.LinkFault{DelayScale: 2.5}
	}
	return network.LinkFault{}
}

// installPinHooks wires every adversary seam the sparse path consults:
// two-value equivocation and selective silence, a 3-way proposal fan,
// StepDone flips to Malicious and Faulty, RoundStart online toggles and
// the fault overlay.
func installPinHooks(r *Runner, n int) {
	r.Network().SetOverlay(pinOverlay{}, 2.5)
	var values []ledger.Hash
	var offline []int
	r.SetHooks(Hooks{
		RoundStart: func(round uint64) {
			for _, id := range offline {
				r.Network().SetOnline(id, true)
			}
			offline = offline[:0]
			for k := 0; k < 6; k++ {
				id := (int(round)*13 + k*37) % n
				if r.Behavior(id) == Faulty {
					continue
				}
				r.Network().SetOnline(id, false)
				offline = append(offline, id)
			}
		},
		VoteValues: func(node int, round, step uint64, final bool, honest, empty ledger.Hash) ([]ledger.Hash, bool) {
			switch {
			case node%13 == 1:
				values = append(values[:0], honest, empty)
				if honest == empty {
					values[1][0] ^= 0x5a
				}
				return values, true
			case node%17 == 2:
				return values[:0], true
			}
			return nil, false
		},
		ProposalFan: func(node int, round uint64) int {
			if node%5 == 0 {
				return 3
			}
			return 1
		},
		StepDone: func(round, step uint64, revealed []int) {
			if len(revealed) == 0 {
				return
			}
			switch step {
			case 2:
				r.SetBehavior(revealed[0], Malicious)
			case 4:
				r.SetBehavior(revealed[len(revealed)-1], Faulty)
			}
		},
	})
}

// pinnedRunner builds the SparseOn population the sparse pins run: every
// ninth node selfish, taus 25/35, weak synchrony in three rounds of ten,
// and installPinHooks when hooked.
func pinnedRunner(t *testing.T, n int, hooked bool, maxBinary int, trace *obs.Trace) *Runner {
	t.Helper()
	behaviors := behaviorsOf(n, Honest)
	for i := 0; i < n; i += 9 {
		behaviors[i] = Selfish
	}
	params := DefaultParams()
	params.TauStep = 25
	params.TauFinal = 35
	params.AsyncProb = 0.3
	params.MaxBinarySteps = maxBinary
	r, err := NewRunner(Config{
		Params:    params,
		Stakes:    testStakes(n),
		Behaviors: behaviors,
		Fanout:    5,
		Seed:      97,
		Sparse:    SparseOn,
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked {
		installPinHooks(r, n)
	}
	return r
}

// digestReport writes one round's report to h.
func digestReport(h io.Writer, rep RoundReport) {
	fmt.Fprintf(h, "%d:%d/%d/%d:%x:%v:%v:%v:%d;", rep.Round, rep.FinalCount, rep.TentativeCount,
		rep.NoneCount, rep.CanonicalHash, rep.CanonicalEmpty, rep.Decided, rep.Degraded, rep.Desynced)
}

// sparseOrderDigest runs a traced SparseOn population and hashes every
// observable of the delivery order: the reports, the task counters, and
// each trace event's phase, timestamp, duration and track, in recording
// order. Every node is in the trace panel, so every delivery is an
// instant. Instant names are left out on purpose: they label the payload
// kind, which the digest does not need to pin the order.
func sparseOrderDigest(t *testing.T, n int, hooked bool, maxBinary int) string {
	t.Helper()
	trace := obs.NewTrace(n)
	r := pinnedRunner(t, n, hooked, maxBinary, trace)
	h := sha256.New()
	for _, rep := range r.RunRounds(4) {
		digestReport(h, rep)
	}
	fmt.Fprintf(h, "counts=%v;", r.TaskCounts())

	events := traceEvents(t, trace)
	instants := 0
	for _, ev := range events {
		if ev.Ph == "i" {
			instants++
		}
		fmt.Fprintf(h, "%s@%v+%v#%d;", ev.Ph, ev.Ts, ev.Dur, ev.Tid)
	}
	// The recorder stops at 1<<19 events; a digest of a truncated trace
	// would pin less than it claims.
	if instants == 0 || len(events) >= 1<<19 {
		t.Fatalf("n=%d: %d instants of %d trace events; want a non-empty, untruncated trace",
			n, instants, len(events))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSparseDeliveryOrderPinned pins the sparse path's delivery order,
// delivery for delivery, to digests recorded when every mean-field
// delivery was its own scheduler event. The delivery logs that replaced
// those events are exact only because a delivery reads state that just
// the phase timers change; a change that breaks that (or reorders RNG
// draws at emission) moves these digests. In the short variant (one
// BinaryBA* step), finalizeRoundSparse casts final votes after the
// round's drain, outside any event; their deliveries run in the next
// round.
func TestSparseDeliveryOrderPinned(t *testing.T) {
	cases := []struct {
		n         int
		hooked    bool
		maxBinary int
		want      string
	}{
		{300, false, 11, "f5abacf1211c37dc25c9a4f443116446a9e721e631ded3f6d146b9837c0eb1d2"},
		{300, true, 11, "d1f64cbfd667d2544eb5d3d2db41ede62f868d6809e45046c6f42eca51c316cd"},
		{1200, false, 11, "996d659b331aba4c9e05607a2b19c363f4a7703e36468ff90ae16b28e7a4ae3a"},
		{1200, true, 11, "04b2ec870ccb0b99665b4f0d1a33f95d552a0e80ad0f84bb7dd102f7b6e35415"},
		{1200, false, 1, "62bbd5e39233f19d5d9a6d34a42aa87c5ca57095ddf7e2e7d5aae2b6a17272c4"},
	}
	for _, c := range cases {
		got := sparseOrderDigest(t, c.n, c.hooked, c.maxBinary)
		if got != c.want {
			t.Errorf("n=%d hooked=%v maxBinary=%d: digest %s, want %s", c.n, c.hooked, c.maxBinary, got, c.want)
		}
	}
}

// sparseRunDigest runs the pinned population with the trace panel cut to
// its first panel nodes (0: untraced) and hashes each round's report and
// the engine clock after it, the run's task counters and, when traced,
// every trace event.
func sparseRunDigest(t *testing.T, n int, hooked bool, panel int) string {
	t.Helper()
	var trace *obs.Trace
	if panel > 0 {
		trace = obs.NewTrace(panel)
	}
	r := pinnedRunner(t, n, hooked, 11, trace)
	h := sha256.New()
	for i := 0; i < 4; i++ {
		reps := r.RunRounds(1)
		if len(reps) != 1 {
			t.Fatalf("n=%d: round %d did not run: %v", n, i+1, r.Err())
		}
		digestReport(h, reps[0])
		fmt.Fprintf(h, "clock=%v;", r.engine.Now())
	}
	fmt.Fprintf(h, "counts=%v;", r.TaskCounts())
	if trace != nil {
		events := traceEvents(t, trace)
		if len(events) >= 1<<19 {
			t.Fatalf("n=%d: trace truncated at %d events", n, len(events))
		}
		for _, ev := range events {
			fmt.Fprintf(h, "%s:%s@%v+%v#%d;", ev.Name, ev.Ph, ev.Ts, ev.Dur, ev.Tid)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSparseRunsPinned pins sparse runs whose receivers mostly lie
// outside the trace panel, untraced and traced on 40 nodes: the reports,
// the engine clock after each round (a drain ends at its latest
// arrival, traced or not), the task counters and the trace.
// TestSparseDeliveryOrderPinned traces every node, so it cannot see how
// deliveries to untraced receivers are applied.
func TestSparseRunsPinned(t *testing.T) {
	cases := []struct {
		n      int
		hooked bool
		panel  int
		want   string
	}{
		{300, false, 0, "72aa134bcf3d1a0403b083032bd077c36c79e481da8826ed5fd1a4d6d303c895"},
		{300, false, 40, "ae41ffc7d9a22b20c56421eb96cdbda08a1a0002ee9f200b81e274fe55946428"},
		{300, true, 0, "b7c1c8ca3cf522f8c666e0f60dc0909751ac4ed80c71ee14cda76c7b7b917da5"},
		{300, true, 40, "ae122d2caa51472e0d5723ec5e00f5cfc8fb86d26308516403cce5fc232be39b"},
		{3000, false, 0, "283cbbdc67169988a8f7a44ce281b12fb851bf69d1a82ac8d425620a2e20fb9a"},
		{3000, false, 40, "d05ac12af06f8dcb0f2e95a9ebe9ff88c556e9407784fe5cf9da0958ef9f2f55"},
		{3000, true, 0, "94622dccd375f2ded1859b2d5069458a4fc68ca5802a86d88e482ee7712c3550"},
		{3000, true, 40, "b00543e42a4cb9a68a4da12d2ea653d0d6a3558249942c06a93ae5430894b1c7"},
	}
	for _, c := range cases {
		got := sparseRunDigest(t, c.n, c.hooked, c.panel)
		if got != c.want {
			t.Errorf("n=%d hooked=%v panel=%d: digest %s, want %s", c.n, c.hooked, c.panel, got, c.want)
		}
	}
}

// TestSparseTraceLabelsProposals pins the trace instant names of sparse
// deliveries: a round traced on every node must label the proposals
// delivered to nodes that did not propose as "proposal". Mean-field
// deliveries carry no message kind, so the label has to come from the
// payload; naming it from the kind once traced every sparse proposal
// delivery as a "vote".
func TestSparseTraceLabelsProposals(t *testing.T) {
	const n = 300
	params := DefaultParams()
	params.TauStep = 25
	params.TauFinal = 35
	trace := obs.NewTrace(n)
	r, err := NewRunner(Config{
		Params:    params,
		Stakes:    testStakes(n),
		Behaviors: behaviorsOf(n, Honest),
		Seed:      5,
		Sparse:    SparseOn,
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunRounds(1)
	received, votes := 0, 0
	for _, ev := range traceEvents(t, trace) {
		switch {
		case ev.Ph != "i":
		case ev.Name == "vote":
			votes++
		case ev.Name == "proposal":
			if _, proposed := r.proposers[ev.Tid]; !proposed {
				received++
			}
		default:
			t.Fatalf("unexpected instant name %q", ev.Name)
		}
	}
	if len(r.proposers) == 0 || votes == 0 {
		t.Fatalf("round had %d proposers and %d vote instants; the check needs both", len(r.proposers), votes)
	}
	if received == 0 {
		t.Fatalf("no proposal instant on any of the %d non-proposers", n-len(r.proposers))
	}
}

// tracedEvent is the part of a recorded trace event the tests read.
type tracedEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int     `json:"tid"`
}

// traceEvents returns every event a trace recorded, in recording order.
func traceEvents(t *testing.T, trace *obs.Trace) []tracedEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []tracedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

// logOverlay spreads each emission over several arrival instants: it
// severs one link in five and scales the delay on two in five, so one
// payload's deliveries land at several instants and different payloads'
// deliveries share instants.
type logOverlay struct{}

func (logOverlay) Link(from, to int) network.LinkFault {
	switch (from + 2*to) % 5 {
	case 0:
		return network.LinkFault{Drop: true}
	case 1:
		return network.LinkFault{DelayScale: 2}
	case 2:
		return network.LinkFault{DelayScale: 1.5}
	}
	return network.LinkFault{}
}

// refDelivery is one event of the per-delivery reference model: a
// delivery, or (self) an origin's copy of its own message, which it
// handles at once: inside the emitting timer, whose seq it takes, or
// after a drain, behind the drain's last event, when it reaches round
// state the next round discards (inert). sub orders the copies one
// event handles.
type refDelivery struct {
	at       time.Duration
	seq, sub int
	node     int
	payload  any
	self     bool
	inert    bool
}

// refRound is one round of a logHarness run: its events are those with
// seq in (from, to], and got holds every actor's tallies and best
// proposal at the round's end.
type refRound struct {
	num      uint64
	from, to int
	got      map[int]nodeView
}

// refTimer is one phase timer of a logHarness run: the round's events
// (seq above from) ordered before (at, seq) are those it has applied, and
// got holds every actor's tallies and best proposal after its phase.
type refTimer struct {
	round uint64
	from  int
	at    time.Duration
	seq   int
	step  int
	got   map[int]nodeView
}

// nodeView is the order-sensitive protocol state of one node: its
// tallies by step (final votes under finalVoteStep) and its best
// proposal. equivocal lists the equivocators the reference has counted.
type nodeView struct {
	tallies   map[uint64]map[ledger.Hash]float64
	best      *proposalPayload
	equivocal []equivocation
}

type equivocation struct {
	step  uint64
	voter int
}

// logHarness drives emissions into a sparse runner from its phase
// timers (the StepDone hook) and after its drains (the RoundEnd hook),
// and records the schedule of the reference model, in which every
// delivery is one engine event taking the next seq when it is emitted.
// The runner's own proposals and votes are silenced, so the harness's
// emissions are the only gossip. The runner traces its first panel
// nodes; plain votes a timer emits to the others fold into window sums,
// and every other delivery is logged.
type logHarness struct {
	r        *Runner
	rng      *rand.Rand
	panel    int
	seq, sub int
	timerSeq []int
	events   []refDelivery
	rounds   []refRound
	timers   []refTimer
	round    uint64
	values   [4]ledger.Hash
}

func newLogHarness(t *testing.T, seed int64, ar *Arena, panel int) *logHarness {
	t.Helper()
	const n = 300 // beyond the 256-node panel, so some receivers are not materialized
	params := DefaultParams()
	params.TauStep, params.TauFinal = 2, 2
	params.AsyncProb = 0
	params.MaxBinarySteps = 1
	r, err := NewRunner(Config{
		Params: params, Stakes: testStakes(n), Behaviors: behaviorsOf(n, Honest),
		Seed: seed, Sparse: SparseOn, Trace: obs.NewTrace(panel), Arena: ar,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &logHarness{r: r, rng: rand.New(rand.NewSource(seed)), panel: panel}
	for i := range h.values {
		h.values[i][0], h.values[i][1] = 0xee, byte(i)
	}
	r.Network().SetOverlay(logOverlay{}, 2)
	r.SetHooks(Hooks{
		RoundStart: h.roundStart,
		StepDone:   h.stepDone,
		RoundEnd:   h.roundEnd,
		VoteValues: func(int, uint64, uint64, bool, ledger.Hash, ledger.Hash) ([]ledger.Hash, bool) {
			return nil, true
		},
		ProposalFan: func(int, uint64) int { return 0 },
	})
	return h
}

// roundStart gives the round's timers their seqs: they are scheduled
// after every delivery emitted so far and before any the round emits.
func (h *logHarness) roundStart(round uint64) {
	h.round = round
	h.timerSeq = h.timerSeq[:0]
	for s := 0; s <= 2+h.r.params.MaxBinarySteps; s++ {
		h.seq++
		h.timerSeq = append(h.timerSeq, h.seq)
	}
}

// stepDone snapshots every actor's view after the phase of the timer of
// step, then emits from that timer.
func (h *logHarness) stepDone(round, step uint64, _ []int) {
	h.timers = append(h.timers, refTimer{round: round, from: h.roundFrom(), at: h.r.engine.Now(),
		seq: h.timerSeq[step], step: int(step), got: h.views()})
	h.emitSome(int(step))
}

// roundEnd snapshots every actor's view, closes the round's seq range,
// then emits after the drain: those deliveries run in the next round.
func (h *logHarness) roundEnd(round uint64, _ RoundReport) {
	h.rounds = append(h.rounds, refRound{num: round, from: h.roundFrom(), to: h.seq, got: h.views()})
	h.emitSome(-1)
}

// roundFrom is the last seq of the previous round, after which the
// running round's events start.
func (h *logHarness) roundFrom() int {
	if k := len(h.rounds); k > 0 {
		return h.rounds[k-1].to
	}
	return 0
}

// views snapshots every actor's view.
func (h *logHarness) views() map[int]nodeView {
	got := make(map[int]nodeView)
	for _, nd := range h.r.sparse.actors {
		got[nd.id] = viewOf(nd)
	}
	return got
}

func viewOf(nd *node) nodeView {
	v := nodeView{tallies: map[uint64]map[ledger.Hash]float64{}, best: nd.bestProposal}
	add := func(step uint64, t *stepTally) {
		for _, e := range t.slots {
			if e.live {
				if v.tallies[step] == nil {
					v.tallies[step] = map[ledger.Hash]float64{}
				}
				v.tallies[step][e.key] = e.w
			}
		}
	}
	for step, t := range nd.tallies {
		if t != nil {
			add(uint64(step), t)
		}
	}
	add(finalVoteStep, nd.finalTally)
	return v
}

// emitSome emits from the phase timer of step (-1: after the drain):
// plain votes, one voter's equivocal votes whose arrival order differs
// from their emission order, and proposal variants sharing a priority.
// Delays include zero and every gap to a later timer (2 s from the
// proposal timer to reduction 1, 1 s per step after it, and 0 to 4 s
// after the drain onto the next round's timers).
func (h *logHarness) emitSome(step int) {
	s := h.r.sparse
	delays := []time.Duration{0, 200 * time.Millisecond, 500 * time.Millisecond, time.Second,
		1500 * time.Millisecond, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	origin := func() int { return s.actors[h.rng.Intn(len(s.actors))].id }
	delay := func() time.Duration { return delays[h.rng.Intn(len(delays))] }
	vote := func(voter int, value ledger.Hash, equivocal bool) *votePayload {
		st := uint64(1 + h.rng.Intn(3))
		return &votePayload{Round: h.round, Step: st, Final: h.rng.Intn(4) == 0, Value: value, Voter: voter,
			Credential: sortition.Result{SubUsers: 1 + h.rng.Intn(3)}, verdict: memoValid, equivocal: equivocal}
	}
	for k := 0; k < 3; k++ {
		o := origin()
		h.emit(step, o, delay(), vote(o, h.values[h.rng.Intn(len(h.values))], false))
	}
	// Equivocation: descending delays, so on most links the last vote
	// emitted arrives first.
	o := origin()
	proto := vote(o, ledger.Hash{}, true)
	for k, d := range []time.Duration{2 * time.Second, time.Second, 500 * time.Millisecond, 0} {
		v := *proto
		v.Value = h.values[k]
		h.emit(step, o, d, &v)
	}
	if step <= 0 {
		o := origin()
		block := ledger.Block{Round: h.round, Prev: h.r.canonical.Tip(),
			Seed: ledger.NextSeed(h.r.canonical.Seed(), h.round), Proposer: o}
		var prio sortition.Priority
		prio[0] = byte(1 + h.rng.Intn(3))
		for k := 0; k < 3; k++ {
			variant := block
			variant.Seed[0] ^= byte(k)
			h.emit(step, o, delay(), &proposalPayload{Block: variant, BlockHash: variant.Hash(),
				Credential: sortition.Result{SubUsers: 1, Priority: prio}, Proposer: o, verdict: memoValid})
		}
	}
}

// emit gossips payload from origin with the given path delay and
// records the reference events: the origin's own copy, then one
// delivery per receiver, in receiver id order.
func (h *logHarness) emit(step, origin int, d time.Duration, payload any) {
	r, s := h.r, h.r.sparse
	now := r.engine.Now()
	h.sub++
	self := refDelivery{at: now, node: origin, payload: payload, self: true, sub: h.sub}
	if step >= 0 {
		self.seq = h.timerSeq[step]
	} else {
		// Handled before every delivery still pending, as the last event
		// the drain ran would have.
		self.seq, self.inert = h.rounds[len(h.rounds)-1].to, true
	}
	h.events = append(h.events, self)
	for _, nd := range s.actors {
		f := logOverlay{}.Link(origin, nd.id)
		if nd.id == origin || f.Drop {
			continue
		}
		at := now + d
		if f.DelayScale > 1 {
			at = now + time.Duration(float64(d)*f.DelayScale)
		}
		h.seq++
		h.events = append(h.events, refDelivery{at: at, seq: h.seq, node: nd.id, payload: payload})
	}
	// Every receiver hears the message, after exactly d.
	s.reach = 1
	s.delayTable = append(s.delayTable[:0], d)
	r.sparseGossip(origin, network.Message{Origin: origin, Payload: payload})
}

// check compares the run with the reference model: the global order of
// traced gossip instants (a delivery emitted after the last drain never
// runs) and every actor's order-sensitive state after each phase timer
// and at each round's end.
func (h *logHarness) check(t *testing.T, label string) {
	t.Helper()
	ref := slices.Clone(h.events)
	slices.SortStableFunc(ref, func(a, b refDelivery) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.sub, b.sub)
	})
	last := h.rounds[len(h.rounds)-1].to
	var want []tracedEvent
	for _, e := range ref {
		if e.node < h.panel && (e.self || e.seq <= last) {
			want = append(want, tracedEvent{Name: payloadName(e.payload), Ph: "i", Ts: float64(e.at) / 1e3, Tid: e.node})
		}
	}
	var got []tracedEvent
	for _, ev := range traceEvents(t, h.r.trace) {
		if ev.Ph == "i" {
			got = append(got, ev)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d gossip instants traced, reference has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			for j := max(0, i-5); j < min(len(want), i+8); j++ {
				t.Logf("%d got %+v want %+v", j, got[j], want[j])
			}
			t.Fatalf("%s: instant %d is %+v, reference %+v", label, i, got[i], want[i])
		}
	}

	for _, tm := range h.timers {
		compareViews(t, fmt.Sprintf("%s: round %d timer %d", label, tm.round, tm.step), ref, tm.round, tm.from, tm.got,
			func(e refDelivery) bool { return e.at < tm.at || e.at == tm.at && e.seq < tm.seq })
	}
	for _, rd := range h.rounds {
		compareViews(t, fmt.Sprintf("%s: round %d end", label, rd.num), ref, rd.num, rd.from, rd.got,
			func(e refDelivery) bool { return e.seq <= rd.to })
	}
}

// compareViews applies, in order, the reference events of round num
// (seq above from) that ran before a snapshot to their receivers' views
// and compares the result with got, the snapshot of every actor.
func compareViews(t *testing.T, label string, ref []refDelivery, num uint64, from int, got map[int]nodeView,
	before func(refDelivery) bool) {
	t.Helper()
	views := map[int]*nodeView{}
	for _, e := range ref {
		if e.seq <= from || e.inert || !before(e) {
			continue
		}
		if _, materialized := got[e.node]; !materialized {
			continue
		}
		v := views[e.node]
		if v == nil {
			v = &nodeView{tallies: map[uint64]map[ledger.Hash]float64{}}
			views[e.node] = v
		}
		v.apply(e.payload, num)
	}
	for id, g := range got {
		want := views[id]
		if want == nil {
			want = &nodeView{tallies: map[uint64]map[ledger.Hash]float64{}}
		}
		if g.best != want.best || !reflect.DeepEqual(g.tallies, want.tallies) {
			t.Fatalf("%s: node %d holds %v (best %p), reference %v (best %p)",
				label, id, g.tallies, g.best, want.tallies, want.best)
		}
	}
}

// apply is handleProposal/handleVote on the reference view.
func (v *nodeView) apply(payload any, round uint64) {
	switch p := payload.(type) {
	case *proposalPayload:
		if p.Block.Round == round && (v.best == nil || v.best.Credential.Priority.Less(p.Credential.Priority)) {
			v.best = p
		}
	case *votePayload:
		if p.Round != round {
			return
		}
		step := p.Step
		if p.Final {
			step = finalVoteStep
		}
		if p.equivocal {
			for _, e := range v.equivocal {
				if e.step == step && e.voter == p.Voter {
					return
				}
			}
			v.equivocal = append(v.equivocal, equivocation{step, p.Voter})
		}
		if v.tallies[step] == nil {
			v.tallies[step] = map[ledger.Hash]float64{}
		}
		v.tallies[step][p.Value] += float64(p.Credential.SubUsers)
	}
}

func payloadName(p any) string {
	if _, ok := p.(*proposalPayload); ok {
		return "proposal"
	}
	return "vote"
}

// TestDeliveryLogsMatchPerDeliveryOrder checks the delivery logs and
// the folded vote sums against the schedule they replace, one engine
// event per delivery run in (at, seq) order: the traced gossip instants
// must follow that order globally, and each receiver's tallies and best
// proposal must be what it yields after every phase timer and at every
// round's end. Emissions come from every phase timer and after every
// drain (MaxBinarySteps 1, so the round's last timer is close to its
// drain). They share arrival instants, use zero delays, land exactly on
// later timers, and include equivocal votes and proposal variants whose
// arrival order is not their emission order. With every node traced,
// every delivery is logged; with 100 traced, plain votes to the rest
// fold. A second run on the same arena follows a run that ended with
// deliveries pending; none of them may reach it.
func TestDeliveryLogsMatchPerDeliveryOrder(t *testing.T) {
	for _, panel := range []int{300, 100} {
		for seed := int64(1); seed <= 4; seed++ {
			ar := NewArena()
			for run := 0; run < 2; run++ {
				h := newLogHarness(t, seed, ar, panel)
				if reps := h.r.RunRounds(3); len(reps) != 3 {
					t.Fatalf("panel %d seed %d: %d rounds ran, want 3 (%v)", panel, seed, len(reps), h.r.Err())
				}
				h.check(t, fmt.Sprintf("panel %d seed %d run %d", panel, seed, run))
			}
		}
	}
}
