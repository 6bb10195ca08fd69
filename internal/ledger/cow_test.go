package ledger

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// chainLedger builds a ledger with n accounts of stake 50 and r committed
// empty blocks.
func chainLedger(t *testing.T, n, r int) *Ledger {
	t.Helper()
	stakes := make([]float64, n)
	for i := range stakes {
		stakes[i] = 50
	}
	l := Genesis(stakes, rand.New(rand.NewSource(1)))
	for round := uint64(1); round <= uint64(r); round++ {
		if err := l.Append(EmptyBlock(round, l.Tip(), NextSeed(l.Seed(), round))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestCOWCloneIsSnapshot pins the clone contract in both directions:
// writes after the clone are invisible across it, for accounts (both
// Credit and transaction application) and for the chain.
func TestCOWCloneIsSnapshot(t *testing.T) {
	l := chainLedger(t, 200, 3)
	v := l.CloneView()

	// Source writes do not leak into the view.
	if err := l.Credit(7, 100); err != nil {
		t.Fatal(err)
	}
	block := Block{
		Round: l.Round(), Prev: l.Tip(), Seed: NextSeed(l.Seed(), l.Round()), Proposer: 0,
		Txns: []Transaction{{From: 0, To: 199, Amount: 10, Fee: 1, Nonce: 1}},
	}
	if err := l.Append(block); err != nil {
		t.Fatal(err)
	}
	if v.Stake(7) != 50 || v.Stake(0) != 50 || v.Stake(199) != 50 {
		t.Fatalf("source writes leaked into view: %v %v %v", v.Stake(7), v.Stake(0), v.Stake(199))
	}
	if v.Round() != 4 || v.FeesCollected() != 0 {
		t.Fatalf("source append leaked into view: round %d fees %v", v.Round(), v.FeesCollected())
	}

	// View writes do not leak into the source.
	if err := v.Credit(42, 5); err != nil {
		t.Fatal(err)
	}
	if err := v.Append(EmptyBlock(4, v.Tip(), NextSeed(v.Seed(), 4))); err != nil {
		t.Fatal(err)
	}
	if l.Stake(42) != 50 {
		t.Fatalf("view credit leaked into source: %v", l.Stake(42))
	}
	if l.Stake(7) != 150 {
		t.Fatalf("source account corrupted: %v", l.Stake(7))
	}
	if err := v.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

// TestCOWSiblingViewsIndependent verifies that two views cloned from the
// same source never observe each other's writes even when they touch the
// same page.
func TestCOWSiblingViewsIndependent(t *testing.T) {
	l := chainLedger(t, 130, 2)
	a := l.CloneView()
	b := l.CloneView()
	if err := a.Credit(65, 1); err != nil { // page 1 on both
		t.Fatal(err)
	}
	if err := b.Credit(66, 2); err != nil {
		t.Fatal(err)
	}
	if a.Stake(66) != 50 || b.Stake(65) != 50 {
		t.Fatalf("sibling views share a materialized page: a(66)=%v b(65)=%v", a.Stake(66), b.Stake(65))
	}
	if l.Stake(65) != 50 || l.Stake(66) != 50 {
		t.Fatal("sibling view writes leaked into the source")
	}
}

// TestCOWCloneOfCloneFlattens exercises the cold path: cloning a view
// that both inherited a prefix and appended its own blocks.
func TestCOWCloneOfClone(t *testing.T) {
	l := chainLedger(t, 64, 2)
	v := l.CloneView()
	if err := v.Append(EmptyBlock(3, v.Tip(), NextSeed(v.Seed(), 3))); err != nil {
		t.Fatal(err)
	}
	w := v.CloneView()
	if w.Round() != 4 || w.Len() != 3 {
		t.Fatalf("clone-of-clone round %d len %d", w.Round(), w.Len())
	}
	if err := w.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// All three replicas keep evolving independently.
	if err := w.Append(EmptyBlock(4, w.Tip(), NextSeed(w.Seed(), 4))); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 || l.Len() != 2 {
		t.Fatalf("append on grandchild leaked: v %d l %d", v.Len(), l.Len())
	}
	for r := uint64(1); r <= 4; r++ {
		if _, ok := w.BlockAt(r); !ok {
			t.Fatalf("BlockAt(%d) missing on grandchild", r)
		}
	}
}

// deepClone is the reference model for CloneView, the pre-COW clone:
// full private copies of the account table and the block list, sharing
// nothing.
func deepClone(l *Ledger) *Ledger {
	v := &Ledger{
		nAccounts: l.nAccounts,
		pages:     newPagedAccounts(l.nAccounts),
		seed:      l.seed,
		tip:       l.tip,
		fees:      l.fees,
	}
	for i := 0; i < l.nAccounts; i++ {
		*v.acctAt(i) = *l.acctAt(i)
	}
	total := len(l.blockPrefix) + len(l.blocks)
	if total > 0 {
		v.blocks = make([]Block, 0, total)
		v.blocks = append(v.blocks, l.blockPrefix...)
		v.blocks = append(v.blocks, l.blocks...)
	}
	return v
}

// measureCloneBytes reports the average heap bytes allocated by one
// clone plus a single-account write — the per-resync cost a
// desynchronised node pays in the simulator.
func measureCloneBytes(l *Ledger, clone func(*Ledger) *Ledger, iters int) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	clones := make([]*Ledger, iters) // keep clones live so GC cannot recycle mid-measure
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		v := clone(l)
		_ = v.Credit(i%l.NumAccounts(), 1)
		clones[i] = v
	}
	runtime.ReadMemStats(&after)
	_ = clones
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
}

// TestCOWResyncAllocBudget is the alloc pin for the tentpole: a resync
// clone must cost O(pages touched), not O(accounts). For 4096 accounts
// the deep clone copies the whole table (hundreds of KB); the COW clone
// must stay under a small budget that is dominated by the page-pointer
// table and one materialized page.
func TestCOWResyncAllocBudget(t *testing.T) {
	l := chainLedger(t, 4096, 4)

	const iters = 200
	cowBytes := measureCloneBytes(l, (*Ledger).CloneView, iters)
	deepBytes := measureCloneBytes(l, deepClone, iters)

	// 4096 accounts ≈ 64 page pointers (512 B) + ledger header + one
	// 64-account page copy; 32 KiB leaves ample noise headroom while a
	// full-table copy (≥ 4096 accounts × ~sizeof(Account)) cannot fit.
	const budget = 32 * 1024
	if cowBytes > budget {
		t.Errorf("COW resync allocates %.0f B/clone, budget %d — clone cost is scaling with accounts again", cowBytes, budget)
	}
	if cowBytes*4 > deepBytes {
		t.Errorf("COW resync (%.0f B) is not meaningfully cheaper than the deep-clone oracle (%.0f B)", cowBytes, deepBytes)
	}

	// Allocation count must not scale with accounts either: clone + one
	// page write is a handful of allocations.
	allocs := testing.AllocsPerRun(100, func() {
		v := l.CloneView()
		_ = v.Credit(1, 1)
	})
	if allocs > 8 {
		t.Errorf("COW resync performs %.1f allocations, want ≤ 8", allocs)
	}
}

// --- Differential clone oracle -------------------------------------------

// cowOp is one step of a randomized schedule replayed against both clone
// implementations.
type cowOp struct {
	kind   int // 0 append-payload, 1 append-empty, 2 credit, 3 resync view, 4 view-append
	view   int
	acct   int
	amount float64
}

// genSchedule derives a desync/crash-churn/reward-flavoured op mix: the
// canonical chain advances (payload or empty blocks), rewards are
// credited, views lag behind (crashed nodes miss appends) and
// resynchronise by re-cloning, and some views commit the canonical block
// themselves (the healthy-node path).
func genSchedule(rng *rand.Rand, views, ops int) []cowOp {
	sched := make([]cowOp, ops)
	for i := range sched {
		op := cowOp{view: rng.Intn(views), acct: rng.Intn(256)}
		switch r := rng.Float64(); {
		case r < 0.30:
			op.kind = 0
		case r < 0.45:
			op.kind = 1
		case r < 0.65:
			op.kind = 2
			op.amount = float64(rng.Intn(20) + 1)
		case r < 0.85:
			op.kind = 3
		default:
			op.kind = 4
		}
		sched[i] = op
	}
	return sched
}

// digest summarises every observable of a replica set: per-account
// stakes, tips, rounds, fees, and chain integrity.
func digest(t *testing.T, canonical *Ledger, views []*Ledger) string {
	t.Helper()
	out := ""
	for vi, l := range append([]*Ledger{canonical}, views...) {
		if err := l.VerifyChain(); err != nil {
			t.Fatalf("replica %d: %v", vi, err)
		}
		sum := 0.0
		for i, s := range l.Stakes() {
			sum += s * float64(i+1)
		}
		out += fmt.Sprintf("r%d:%d,%s,%.6f,%.6f;", vi, l.Round(), l.Tip(), l.FeesCollected(), sum)
	}
	return out
}

// runSchedule replays one schedule, cloning views with clone, and
// returns the digest trace.
func runSchedule(t *testing.T, sched []cowOp, views int, clone func(*Ledger) *Ledger) []string {
	t.Helper()
	stakes := make([]float64, 256)
	for i := range stakes {
		stakes[i] = 100
	}
	canonical := Genesis(stakes, rand.New(rand.NewSource(99)))
	replicas := make([]*Ledger, views)
	for i := range replicas {
		replicas[i] = clone(canonical)
	}
	var trace []string
	nonce := uint64(0)
	for _, op := range sched {
		switch op.kind {
		case 0:
			round := canonical.Round()
			nonce++
			b := Block{
				Round: round, Prev: canonical.Tip(), Seed: NextSeed(canonical.Seed(), round), Proposer: op.acct,
				Txns: []Transaction{{From: op.acct, To: (op.acct + 17) % 256, Amount: 3, Fee: 0.5, Nonce: nonce}},
			}
			if err := canonical.Append(b); err != nil {
				t.Fatal(err)
			}
		case 1:
			round := canonical.Round()
			if err := canonical.Append(EmptyBlock(round, canonical.Tip(), NextSeed(canonical.Seed(), round))); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := canonical.Credit(op.acct, op.amount); err != nil {
				t.Fatal(err)
			}
		case 3:
			replicas[op.view] = clone(canonical)
		case 4:
			// A healthy node commits the canonical block for its round, if
			// it is not already ahead or desynced past it.
			v := replicas[op.view]
			if b, ok := canonical.BlockAt(v.Round()); ok && b.Prev == v.Tip() {
				if err := v.Append(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		trace = append(trace, digest(t, canonical, replicas))
	}
	return trace
}

// TestCloneDifferentialOracle replays randomized desync/churn/reward
// schedules under the COW implementation and under the deep-clone oracle
// and requires every intermediate observable (accounts, tip, Round,
// fees) to be identical.
func TestCloneDifferentialOracle(t *testing.T) {
	const views = 6
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			sched := genSchedule(rand.New(rand.NewSource(seed)), views, 400)
			cow := runSchedule(t, sched, views, (*Ledger).CloneView)
			deep := runSchedule(t, sched, views, deepClone)
			if len(cow) != len(deep) {
				t.Fatalf("trace lengths differ: %d vs %d", len(cow), len(deep))
			}
			for i := range cow {
				if cow[i] != deep[i] {
					t.Fatalf("op %d: COW and deep-clone observables diverge\ncow:  %s\ndeep: %s", i, cow[i], deep[i])
				}
			}
		})
	}
}
