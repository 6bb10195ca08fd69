// Package ledger implements the blockchain substrate: accounts with
// stakes, signed transactions, blocks, the hash chain, and the per-round
// random seed Q_r that feeds cryptographic sortition.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// Hash is a 32-byte SHA-256 digest used for blocks and seeds.
type Hash [32]byte

// IsZero reports whether h is the zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// String renders the first 8 bytes in hex, enough for logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// Account is one Algorand participant: a keypair plus a stake balance
// denominated in Algos.
type Account struct {
	// ID is the account's index in the ledger; it doubles as the node ID
	// in the network simulator.
	ID int
	// Keys is the sortition identity.
	Keys vrf.KeyPair
	// Stake is the balance in Algos.
	Stake float64
}

// Transaction transfers Amount Algos between two accounts and pays Fee
// Algos into the transaction-fee pool. Signatures are modelled by
// construction inside the trusted simulator; validity is a balance check.
type Transaction struct {
	From   int
	To     int
	Amount float64
	Fee    float64
	Nonce  uint64
}

// Hash returns the digest identifying the transaction.
func (t Transaction) Hash() Hash {
	var buf [8 * 5]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(int64(t.From)))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(t.To)))
	binary.BigEndian.PutUint64(buf[16:], math.Float64bits(t.Amount))
	binary.BigEndian.PutUint64(buf[24:], math.Float64bits(t.Fee))
	binary.BigEndian.PutUint64(buf[32:], t.Nonce)
	return sha256.Sum256(buf[:])
}

// Fees sums the fees carried by a block's transactions.
func (b Block) Fees() float64 {
	total := 0.0
	for _, tx := range b.Txns {
		total += tx.Fee
	}
	return total
}

// Block is either a payload block assembled by a proposer or the empty
// block that BA* falls back to when no proposal gains quorum.
type Block struct {
	Round    uint64
	Prev     Hash
	Seed     Hash
	Proposer int // -1 for the empty block
	Txns     []Transaction
	Empty    bool
}

// EmptyBlock constructs the round's default empty block, which is fully
// determined by the previous block so every node derives the same one.
func EmptyBlock(round uint64, prev, seed Hash) Block {
	return Block{Round: round, Prev: prev, Seed: seed, Proposer: -1, Empty: true}
}

// blockHeaderLen is the fixed-size prefix of a block's hash input:
// round ‖ prev ‖ seed ‖ proposer ‖ empty-flag.
const blockHeaderLen = 8 + 32 + 32 + 8 + 1

// blockHashStackTxns bounds the transaction count hashed without a heap
// allocation; empty and small blocks (the consensus hot path) stay on the
// stack.
const blockHashStackTxns = 13

// Hash returns the block digest: SHA-256 over the header prefix followed
// by every transaction hash. The byte stream matches the historical
// streaming implementation exactly, so digests are unchanged.
func (b Block) Hash() Hash {
	var stack [blockHeaderLen + 32*blockHashStackTxns]byte
	buf := stack[:0]
	if need := blockHeaderLen + 32*len(b.Txns); need > len(stack) {
		buf = make([]byte, 0, need)
	}
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], b.Round)
	buf = append(buf, u64[:]...)
	buf = append(buf, b.Prev[:]...)
	buf = append(buf, b.Seed[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(int64(b.Proposer)))
	buf = append(buf, u64[:]...)
	if b.Empty {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, tx := range b.Txns {
		th := tx.Hash()
		buf = append(buf, th[:]...)
	}
	return Hash(sha256.Sum256(buf))
}

// Errors returned by ledger operations.
var (
	ErrBadRound        = errors.New("ledger: block round does not extend the chain")
	ErrBadPrev         = errors.New("ledger: block prev hash does not match chain tip")
	ErrUnknownAccount  = errors.New("ledger: unknown account")
	ErrInsufficientBal = errors.New("ledger: insufficient balance")
	ErrBadAmount       = errors.New("ledger: non-positive transaction amount")
)

// Account pages: the account table is stored as fixed-span pages so a
// view can be cloned by sharing page pointers instead of copying every
// Account. A page shared with another view is frozen; the first write
// through either side materializes a private copy of just that page
// (copy-on-write), so a catch-up resync costs O(pages touched) instead of
// O(accounts).
const (
	pageShift = 6
	pageSize  = 1 << pageShift
)

// accountPage is one fixed-span slice of the account table. frozen marks
// the page as shared with at least one other view: it must be copied
// before the next write. The flag is monotonic per page object — it is
// never cleared, a writer installs a fresh unfrozen page instead.
type accountPage struct {
	frozen bool
	accts  []Account
}

// copyForWrite returns a private, unfrozen copy of p.
func (p *accountPage) copyForWrite() *accountPage {
	np := &accountPage{accts: make([]Account, len(p.accts))}
	copy(np.accts, p.accts)
	return np
}

// newPagedAccounts builds an unfrozen page table for n accounts, carving
// every page's span from one backing allocation.
func newPagedAccounts(n int) []*accountPage {
	numPages := (n + pageSize - 1) / pageSize
	pages := make([]*accountPage, numPages)
	headers := make([]accountPage, numPages)
	backing := make([]Account, n)
	for pi := range pages {
		lo := pi * pageSize
		hi := lo + pageSize
		if hi > n {
			hi = n
		}
		headers[pi].accts = backing[lo:hi:hi]
		pages[pi] = &headers[pi]
	}
	return pages
}

// Ledger is one node's view of the chain plus the account table. The
// simulator shares a single genesis account table across nodes and lets
// each node maintain its own chain replica. Views are copy-on-write: see
// CloneView for the sharing contract.
type Ledger struct {
	// nAccounts is the account count; pages is the COW page table.
	nAccounts int
	pages     []*accountPage
	// blockPrefix is the committed chain inherited from the clone source:
	// an immutable, capacity-clamped shared slice this view never appends
	// to or mutates. blocks holds the blocks this view committed itself.
	blockPrefix []Block
	blocks      []Block
	seed        Hash
	tip         Hash // memoised hash of the last block; zero at genesis
	fees        float64
	// observer, when set, is notified of every account-stake mutation on
	// THIS ledger (views never inherit it — CloneView builds a fresh
	// struct). The incremental weight index (internal/weight)
	// registers here to keep its mirror current in O(1) per mutation.
	observer StakeObserver
	// observerTok identifies the current observer installation so a
	// stale owner cannot clear a successor (see ClearStakeObserver);
	// observerSeq mints the tokens.
	observerTok ObserverToken
	observerSeq uint64
}

// StakeObserver receives one notification per account-stake mutation:
// the account id, its balance before the write, and its balance after.
// Called synchronously from Credit and from Append's transaction apply;
// implementations must not mutate the ledger re-entrantly.
type StakeObserver func(id int, old, new float64)

// ObserverToken identifies one SetStakeObserver installation. The zero
// token never matches an installation, so holding one from a previous
// owner is always safe.
type ObserverToken uint64

// SetStakeObserver installs fn as this ledger's mutation observer
// (nil uninstalls) and returns the token identifying this installation.
// Cloned views never inherit the observer: a view's private writes are
// invisible to the source's stake index by design.
//
// An owner that may be replaced later must release with
// ClearStakeObserver(token) rather than SetStakeObserver(nil):
// unconditional nil-ing clobbers whatever observer was installed after
// it, silently leaving that successor's mirror permanently stale.
func (l *Ledger) SetStakeObserver(fn StakeObserver) ObserverToken {
	l.observer = fn
	if fn == nil {
		l.observerTok = 0
		return 0
	}
	l.observerSeq++
	l.observerTok = ObserverToken(l.observerSeq)
	return l.observerTok
}

// ClearStakeObserver uninstalls the observer only when tok identifies
// the currently installed one (compare-and-clear). It reports whether
// the observer was cleared; a stale token — the caller was already
// replaced by a later SetStakeObserver — is a no-op.
func (l *Ledger) ClearStakeObserver(tok ObserverToken) bool {
	if tok == 0 || tok != l.observerTok {
		return false
	}
	l.observer = nil
	l.observerTok = 0
	return true
}

// acctAt returns a read-only pointer to account id; the caller must not
// write through it (the page may be frozen).
func (l *Ledger) acctAt(id int) *Account {
	return &l.pages[id>>pageShift].accts[id&(pageSize-1)]
}

// mutableAcct returns a writable pointer to account id, materializing a
// private copy of its page first when the page is shared.
func (l *Ledger) mutableAcct(id int) *Account {
	pi := id >> pageShift
	p := l.pages[pi]
	if p.frozen {
		p = p.copyForWrite()
		l.pages[pi] = p
	}
	return &p.accts[id&(pageSize-1)]
}

// FeesCollected returns the cumulative transaction fees deducted by
// applied blocks, the amount owed to the transaction-fee pool.
func (l *Ledger) FeesCollected() float64 { return l.fees }

// Genesis creates a ledger with n accounts whose stakes are given and
// whose keys derive from rng. The genesis seed Q_0 derives from the seed
// material of rng too, so two ledgers built with identical streams agree.
func Genesis(stakes []float64, rng *rand.Rand) *Ledger {
	l := &Ledger{nAccounts: len(stakes), pages: newPagedAccounts(len(stakes))}
	for i, s := range stakes {
		*l.acctAt(i) = Account{ID: i, Keys: vrf.GenerateKey(rng), Stake: s}
	}
	var seed Hash
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	l.seed = seed
	return l
}

// CloneView returns an independent replica of this view. The replica is
// observably a snapshot — later writes on either side are invisible to
// the other — but shares storage copy-on-write: account pages are frozen
// and materialized privately on first write (Credit or a block's
// transaction apply), and the committed chain is inherited as an
// immutable shared prefix. Cloning is therefore O(pages), not
// O(accounts + blocks); the differential tests check it against a full
// deep copy.
func (l *Ledger) CloneView() *Ledger {
	pages := make([]*accountPage, len(l.pages))
	copy(pages, l.pages)
	for _, p := range l.pages {
		p.frozen = true
	}
	v := &Ledger{
		nAccounts: l.nAccounts,
		pages:     pages,
		seed:      l.seed,
		tip:       l.tip,
		fees:      l.fees,
	}
	switch {
	case len(l.blocks) == 0:
		v.blockPrefix = l.blockPrefix
	case len(l.blockPrefix) == 0:
		// Clamp capacity so the source's future appends (which may write
		// the backing array beyond this length) stay invisible here.
		v.blockPrefix = l.blocks[:len(l.blocks):len(l.blocks)]
	default:
		// The source both inherited a prefix and appended its own blocks:
		// flatten once into a fresh immutable prefix. The runner only
		// clones the canonical chain (prefix always empty there), so this
		// path is cold.
		flat := make([]Block, 0, len(l.blockPrefix)+len(l.blocks))
		flat = append(flat, l.blockPrefix...)
		flat = append(flat, l.blocks...)
		v.blockPrefix = flat
	}
	return v
}

// NumAccounts returns the number of accounts.
func (l *Ledger) NumAccounts() int { return l.nAccounts }

// Account returns account id, or an error when out of range.
func (l *Ledger) Account(id int) (Account, error) {
	if id < 0 || id >= l.nAccounts {
		return Account{}, ErrUnknownAccount
	}
	return *l.acctAt(id), nil
}

// Stake returns the balance of account id (0 when unknown).
func (l *Ledger) Stake(id int) float64 {
	if id < 0 || id >= l.nAccounts {
		return 0
	}
	return l.acctAt(id).Stake
}

// TotalStake returns S_N, the total stake across accounts.
func (l *Ledger) TotalStake() float64 {
	sum := 0.0
	for _, p := range l.pages {
		for i := range p.accts {
			sum += p.accts[i].Stake
		}
	}
	return sum
}

// Credit adds amount Algos to account id; used by reward disbursement.
func (l *Ledger) Credit(id int, amount float64) error {
	if id < 0 || id >= l.nAccounts {
		return ErrUnknownAccount
	}
	if amount < 0 {
		return ErrBadAmount
	}
	a := l.mutableAcct(id)
	old := a.Stake
	a.Stake = old + amount
	if l.observer != nil {
		l.observer(id, old, a.Stake)
	}
	return nil
}

// Round returns the next round to be agreed on (1 + number of blocks).
func (l *Ledger) Round() uint64 { return uint64(len(l.blockPrefix)+len(l.blocks)) + 1 }

// Tip returns the hash of the last agreed block, or the zero hash at
// genesis. The hash is memoised at Append time: consensus consults the
// tip many times per round, and rehashing the block each call dominated
// the round loop's allocation profile.
func (l *Ledger) Tip() Hash {
	return l.tip
}

// Seed returns Q_{r-1}, the sortition seed for the upcoming round.
func (l *Ledger) Seed() Hash { return l.seed }

// NextSeed derives Q_r from Q_{r-1} and the round number, as the paper's
// seed-generation task does ("a random number generated by VRF from the
// last seed value and the current round number").
func NextSeed(prev Hash, round uint64) Hash {
	h := sha256.New()
	h.Write(prev[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], round)
	h.Write(buf[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// ValidateTx checks a transaction against current balances. The sender
// must cover both the transferred amount and the fee.
func (l *Ledger) ValidateTx(tx Transaction) error {
	if tx.Amount <= 0 || tx.Fee < 0 {
		return ErrBadAmount
	}
	if tx.From < 0 || tx.From >= l.nAccounts || tx.To < 0 || tx.To >= l.nAccounts {
		return ErrUnknownAccount
	}
	if l.acctAt(tx.From).Stake < tx.Amount+tx.Fee {
		return ErrInsufficientBal
	}
	return nil
}

// ValidateBlock checks that b extends this ledger's chain.
func (l *Ledger) ValidateBlock(b Block) error {
	if b.Round != l.Round() {
		return ErrBadRound
	}
	if b.Prev != l.Tip() {
		return ErrBadPrev
	}
	if b.Empty {
		return nil
	}
	for _, tx := range b.Txns {
		if err := l.ValidateTx(tx); err != nil {
			return fmt.Errorf("round %d tx: %w", b.Round, err)
		}
	}
	return nil
}

// Append validates and commits block b: transactions are applied to
// balances and the sortition seed advances.
func (l *Ledger) Append(b Block) error {
	if err := l.ValidateBlock(b); err != nil {
		return err
	}
	if !b.Empty {
		for _, tx := range b.Txns {
			// Re-validate sequentially: earlier transactions in the block may
			// have drained the sender.
			if err := l.ValidateTx(tx); err != nil {
				continue // invalid-at-apply transactions are skipped, not fatal
			}
			from := l.mutableAcct(tx.From)
			oldFrom := from.Stake
			from.Stake = oldFrom - (tx.Amount + tx.Fee)
			if l.observer != nil {
				l.observer(tx.From, oldFrom, from.Stake)
			}
			to := l.mutableAcct(tx.To)
			oldTo := to.Stake
			to.Stake = oldTo + tx.Amount
			if l.observer != nil {
				l.observer(tx.To, oldTo, to.Stake)
			}
			l.fees += tx.Fee
		}
	}
	l.blocks = append(l.blocks, b)
	l.seed = NextSeed(l.seed, b.Round)
	l.tip = b.Hash()
	return nil
}

// BlockAt returns the agreed block for round r (1-based).
func (l *Ledger) BlockAt(r uint64) (Block, bool) {
	if r < 1 || r > uint64(len(l.blockPrefix)+len(l.blocks)) {
		return Block{}, false
	}
	if p := uint64(len(l.blockPrefix)); r <= p {
		return l.blockPrefix[r-1], true
	}
	return l.blocks[r-1-uint64(len(l.blockPrefix))], true
}

// Len returns the number of committed blocks.
func (l *Ledger) Len() int { return len(l.blockPrefix) + len(l.blocks) }

// Stakes returns a copy of all balances, indexed by account ID.
func (l *Ledger) Stakes() []float64 {
	return l.StakesInto(nil)
}

// StakesInto fills dst with all balances indexed by account ID, growing
// it as needed, and returns it; dst may be nil. Callers on the round hot
// path reuse one buffer instead of allocating per call.
func (l *Ledger) StakesInto(dst []float64) []float64 {
	if cap(dst) < l.nAccounts {
		dst = make([]float64, l.nAccounts)
	}
	dst = dst[:l.nAccounts]
	for pi, p := range l.pages {
		base := pi * pageSize
		for i := range p.accts {
			dst[base+i] = p.accts[i].Stake
		}
	}
	return dst
}

// ErrChainBroken reports a hash-chain integrity violation.
var ErrChainBroken = errors.New("ledger: hash chain broken")

// VerifyChain re-validates the committed chain's structure: rounds are
// consecutive from 1 and every block's Prev equals the previous block's
// hash. It is the integrity audit nodes would run after a catch-up.
func (l *Ledger) VerifyChain() error {
	prev := Hash{}
	i := 0
	for _, seg := range [2][]Block{l.blockPrefix, l.blocks} {
		for _, b := range seg {
			if b.Round != uint64(i)+1 {
				return fmt.Errorf("%w: block %d has round %d", ErrChainBroken, i, b.Round)
			}
			if b.Prev != prev {
				return fmt.Errorf("%w: block %d prev mismatch", ErrChainBroken, i)
			}
			prev = b.Hash()
			i++
		}
	}
	if i > 0 && l.Tip() != prev {
		return fmt.Errorf("%w: tip mismatch", ErrChainBroken)
	}
	return nil
}
