package sortition

import (
	"math"

	"github.com/dsn2020-algorand/incentives/internal/vrf"
)

// Cache is the sortition selection oracle: it memoises the binomial CDF
// threshold tables that Select and Verify would otherwise rebuild from
// scratch on every call, turning repeated-round selection into one VRF
// evaluation plus a binary search.
//
// # Invalidation contract
//
// Entries are keyed by the pair (whole-unit stake w, selection probability
// p = τ/W). Every input that influences selection statistics is folded
// into that key:
//
//   - an account's stake change alters w → new key, fresh table;
//   - a committee-size (τ) or total-stake (W) change alters p → new key.
//
// Cached tables therefore never go stale — there is no explicit
// invalidation to perform on stake movement; the stale entry is simply
// never consulted again. The only reason to drop entries is memory: a
// long-lived process sweeping many (stake, τ, W) combinations can call
// Reset to release all tables at a natural boundary (e.g. between
// simulation runs). Seed, role, round and step do NOT enter the key: they
// only affect the VRF draw, never the thresholds.
//
// A Cache is NOT safe for concurrent use; give each goroutine (in this
// repo: each protocol.Runner, hence each run-pool worker) its own
// instance. The zero value is not usable — construct with NewCache.
type Cache struct {
	tables map[thresholdKey]*thresholdTable

	// hits/misses count table lookups for telemetry: plain (non-atomic)
	// fields — the cache is single-threaded by contract — cumulative for
	// the cache's lifetime (Reset releases tables, not statistics, so
	// consumers flushing deltas stay monotonic across the high-water
	// Reset the protocol runner performs mid-run).
	hits   uint64
	misses uint64
}

// NewCache returns an empty selection oracle.
func NewCache() *Cache {
	return &Cache{tables: make(map[thresholdKey]*thresholdTable)}
}

// Reset drops every memoised table, releasing memory. Existing results
// remain valid; subsequent calls rebuild tables on demand.
func (c *Cache) Reset() {
	clear(c.tables)
}

// Size returns the number of distinct (stake, probability) tables held.
func (c *Cache) Size() int { return len(c.tables) }

type thresholdKey struct {
	w    int
	prob float64
}

// thresholdTable holds the running binomial CDF of subUsers, truncated at
// the point where the PMF term underflows to exactly zero: beyond that
// index every further CDF value is bit-identical to the last stored one,
// so lookups past the end are decided by the final entry alone.
//
// cdf[j] is the CDF value the scalar loop in subUsers compares u against
// at iteration j, computed with the same operations in the same order —
// the table walk is therefore bit-for-bit equivalent to the recomputation
// it replaces, which the equivalence tests and golden figures pin.
type thresholdTable struct {
	cdf []float64
}

// lookup returns the unique j with cdf[j-1] <= u < cdf[j], i.e. the first
// index whose threshold exceeds u, or w when u clears every threshold.
func (t *thresholdTable) lookup(u float64, w int) int {
	// Binary search for the first j with u < cdf[j]; cdf is non-decreasing
	// (each entry adds a non-negative pmf term), so this is the same j the
	// linear scan finds.
	lo, hi := 0, len(t.cdf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < t.cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(t.cdf) {
		// u is at or above the last stored threshold. All truncated entries
		// equal the last stored value, so the scan would run off the end.
		return w
	}
	return lo
}

// table returns the memoised threshold table for (w, prob), building it
// on first use.
func (c *Cache) table(w int, prob float64) *thresholdTable {
	key := thresholdKey{w: w, prob: prob}
	if t, ok := c.tables[key]; ok {
		c.hits++
		return t
	}
	c.misses++
	t := buildThresholdTable(w, prob)
	c.tables[key] = t
	return t
}

// Stats returns the cumulative table lookup hit/miss counts. Reading
// them never affects selection.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// buildThresholdTable replays the incremental pmf/cdf recurrence of
// subUsers once, recording the CDF value of every iteration until the pmf
// term underflows to zero (after which the CDF is frozen and needs no
// further entries) or all w iterations are recorded.
func buildThresholdTable(w int, prob float64) *thresholdTable {
	logPmf := float64(w) * math.Log1p(-prob)
	pmf := math.Exp(logPmf)
	cdf := pmf
	t := &thresholdTable{cdf: make([]float64, 0, 64)}
	for j := 0; j < w; j++ {
		t.cdf = append(t.cdf, cdf)
		if pmf == 0 {
			// Every later entry would repeat cdf exactly; truncate.
			break
		}
		pmf *= prob / (1 - prob) * float64(w-j) / float64(j+1)
		cdf += pmf
	}
	return t
}

// subUsers mirrors the scalar subUsers through the threshold table; it
// implements inverter, so the shared selectWith/verifyWith bodies route
// the binomial inversion here while everything else (validation, VRF,
// priority) stays literally the same code as the direct path.
func (c *Cache) subUsers(u float64, w int, prob float64) int {
	if w <= 0 || prob <= 0 {
		return 0
	}
	if prob >= 1 {
		return w
	}
	return c.table(w, prob).lookup(u, w)
}

// Select is the cached equivalent of the package-level Select: identical
// results, but the binomial inversion walks the memoised threshold table
// instead of recomputing the PDF recurrence per call.
func (c *Cache) Select(key vrf.PrivateKey, stake float64, p Params) (Result, error) {
	return selectWith(c, key, stake, p)
}

// Verify is the cached equivalent of the package-level Verify.
func (c *Cache) Verify(pub vrf.PublicKey, stake float64, p Params, res Result) bool {
	return verifyWith(c, pub, stake, p, res)
}
