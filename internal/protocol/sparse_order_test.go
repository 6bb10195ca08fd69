package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/network"
	"github.com/dsn2020-algorand/incentives/internal/obs"
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

// sparseOrderDigest runs a traced SparseOn population and hashes every
// observable of the delivery order: the reports, the task counters, and
// each trace event's phase, timestamp, duration and track, in recording
// order. Every node is in the trace panel, so every delivery is an
// instant. Instant names are left out on purpose: they label the payload
// kind, which the digest does not need to pin the order.
func sparseOrderDigest(t *testing.T, n int, hooked bool, maxBinary int) string {
	t.Helper()
	stakes := testStakes(n)
	behaviors := behaviorsOf(n, Honest)
	for i := 0; i < n; i += 9 {
		behaviors[i] = Selfish
	}
	params := DefaultParams()
	params.TauStep = 25
	params.TauFinal = 35
	params.AsyncProb = 0.3
	params.MaxBinarySteps = maxBinary
	trace := obs.NewTrace(n)
	r, err := NewRunner(Config{
		Params:    params,
		Stakes:    stakes,
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
	h := sha256.New()
	for _, rep := range r.RunRounds(4) {
		fmt.Fprintf(h, "%d:%d/%d/%d:%x:%v:%v:%v:%d;", rep.Round, rep.FinalCount, rep.TentativeCount,
			rep.NoneCount, rep.CanonicalHash, rep.CanonicalEmpty, rep.Decided, rep.Degraded, rep.Desynced)
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
// delivery for delivery, to digests recorded before mean-field
// deliveries were batched per arrival instant. Batching is exact only
// because a sparse delivery schedules nothing; a change that breaks that
// (or reorders RNG draws at emission) moves these digests. In the short
// variant (one BinaryBA* step), finalizeRoundSparse casts final votes
// after the round's drain, outside any event; their deliveries run in
// the next round.
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

// TestBatchedDeliveriesMatchPerDeliveryOrder checks deliverAt's
// exactness claim against a reference model of one engine event per
// delivery: deliveries and marker events must run in (at, seq) order,
// where every delivery takes its own seq when emitted. Random schedules
// put emitting events at shared instants, aim deliveries of several
// events (and zero delays) at shared arrival instants, let
// non-emitting events schedule markers at those instants between two
// emitters, and emit from outside any event after a drain. The second
// schedule's times lie before the drained clock, so its events all run
// at the instant the post-drain deliveries were emitted.
func TestBatchedDeliveriesMatchPerDeliveryOrder(t *testing.T) {
	const n = 40
	delays := []time.Duration{0, 100 * time.Millisecond, 250 * time.Millisecond,
		time.Second, 1250 * time.Millisecond, 2 * time.Second}
	times := []time.Duration{time.Second, time.Second, 2 * time.Second, 2250 * time.Millisecond, 3 * time.Second}
	for seed := int64(1); seed <= 8; seed++ {
		params := DefaultParams()
		params.TauStep, params.TauFinal = 5, 6
		trace := obs.NewTrace(n)
		r, err := NewRunner(Config{
			Params: params, Stakes: testStakes(n), Behaviors: behaviorsOf(n, Honest),
			Seed: seed, Sparse: SparseOn, Trace: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		type ref struct {
			at  time.Duration
			seq int
			tid int
		}
		var want []ref
		seq := 0
		emit := func(count int) {
			payload := &votePayload{}
			for k := 0; k < count; k++ {
				d := delays[rng.Intn(len(delays))]
				v := rng.Intn(n)
				r.sparse.msgs = append(r.sparse.msgs, payload)
				r.deliverAt(d, v, int32(len(r.sparse.msgs)-1))
				seq++
				want = append(want, ref{r.engine.Now() + d, seq, v})
			}
		}
		markers := 0
		schedule := func() {
			for k := 0; k < 12; k++ {
				at := times[rng.Intn(len(times))]
				seq++
				if rng.Intn(3) == 0 {
					// A non-emitting event that schedules a marker.
					r.engine.ScheduleAt(at, func() {
						d := delays[1+rng.Intn(len(delays)-1)]
						tid := 1000 + markers
						markers++
						seq++
						want = append(want, ref{r.engine.Now() + d, seq, tid})
						r.engine.Schedule(d, func() { trace.Instant("test", "marker", tid, r.engine.Now()) })
					})
					continue
				}
				// Up to ~130 deliveries per arrival instant: batches span
				// several blocks.
				count := 1 + rng.Intn(800)
				r.engine.ScheduleAt(at, func() { emit(count) })
			}
		}
		schedule()
		_ = r.engine.Run(0)
		emit(30) // after the drain, outside any event
		schedule()
		_ = r.engine.Run(0)

		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		got := traceEvents(t, trace)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d instants recorded, reference has %d", seed, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Ts != float64(w.at)/1e3 || g.Tid != w.tid {
				t.Fatalf("seed %d: instant %d is (ts %v, tid %d), reference (ts %v, tid %d)",
					seed, i, g.Ts, g.Tid, float64(w.at)/1e3, w.tid)
			}
		}
	}
}
