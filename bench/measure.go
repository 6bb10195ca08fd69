package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// size scales a workload: defaultSize is the benchmark, tinySize lets
// the tests run every workload in about a second.
type size int

const (
	defaultSize size = iota
	tinySize
)

// loop is one workload's closed loop: a single caller issuing
// operations back to back, in cycles that each cover the workload's
// whole input mix.
type loop interface {
	cycleLen() int
	// mix is how many operations of each input one cycle runs, by the
	// input index op reports.
	mix() []int
	// setup builds what a user builds before the first result — the
	// config, a population, one protocol.Runner at the workload's size,
	// and the sink stack or server. It reports how long
	// protocol.NewRunner took and returns a func that releases it all.
	setup(e *env) (newRunner time.Duration, release func() error, err error)
	// warm runs untimed operations, inside a cycle, that bring the heap,
	// caches and code to the state the measured operations run in.
	warm(e *env) error
	// startCycle and endCycle bracket each cycle with untimed work.
	startCycle() error
	endCycle() error
	// op runs operation i of the loop; the same i always gets the same
	// inputs for a given seed.
	op(e *env, i int) (opStats, error)
}

// opStats is one operation as the caller saw it.
type opStats struct {
	index int
	// input says which of the cycle's inputs the op ran (see loop.mix).
	input int
	// rounds is the number of rounds the op simulated: zero when it
	// was served without simulating.
	rounds     int
	wall       time.Duration
	allocBytes uint64 // heap bytes allocated during the op
	// firstCell and streamBytes are a daemon job's time to its first
	// completed cell and the length of its wire stream.
	firstCell   time.Duration
	streamBytes int
}

// env is the state one run shares with its operations.
type env struct {
	seed int64
	dir  string // scratch directory for sink output
	// digest hashes the rows of the first cycle; nil once it is done.
	digest hash.Hash
	sum    string
	// spans and the span ids are set during the traced pass only, when
	// the first cycle's operations also queue runs to re-drive.
	spans            *spanLog
	rootSpan, opSpan int
	redo             []redrive
	// setups times set-up children between operations; nil when not.
	setups *setupTimer
}

// pass is one stretch of operations in cycle order.
type pass struct {
	ops       []opStats
	wall      time.Duration
	attempted int
	failed    int
}

// runPass runs operations in cycle order: exactly `ops` of them when it
// is positive, otherwise one whole cycle and then one more operation at
// a time while the next is expected to end within budget. A failed
// operation is counted and reported, and the loop goes on; a failure to
// start or end a cycle aborts the pass.
func runPass(l loop, e *env, budget time.Duration, ops int, log io.Writer) (pass, error) {
	var p pass
	n := l.cycleLen()
	start := time.Now()
	open := false
	for i := 0; ops <= 0 || i < ops; i++ {
		if el := time.Since(start); ops <= 0 && i >= n && el+el/time.Duration(i) > budget {
			break
		}
		if i%n == 0 {
			if err := l.startCycle(); err != nil {
				return p, fmt.Errorf("start cycle %d: %w", i/n, err)
			}
			open = true
		}
		if err := e.setups.between(); err != nil {
			return p, err
		}
		p.attempted++
		alloc := heapAllocs()
		e.opSpan = e.spans.begin("op", e.rootSpan)
		st, err := l.op(e, i)
		e.spans.end(e.opSpan)
		if err != nil {
			p.failed++
			fmt.Fprintf(log, "bench: operation %d failed: %v\n", i, err)
		} else {
			st.index, st.allocBytes = i, heapAllocs()-alloc
			p.ops = append(p.ops, st)
		}
		if i%n == n-1 {
			open = false
			if err := l.endCycle(); err != nil {
				return p, fmt.Errorf("end cycle %d: %w", i/n, err)
			}
			if e.digest != nil {
				e.sum = hex.EncodeToString(e.digest.Sum(nil))
				e.digest = nil
			}
		}
	}
	if open {
		if err := l.endCycle(); err != nil {
			return p, fmt.Errorf("end cycle: %w", err)
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

//go:embed digests.json
var digestsJSON []byte

// referenceDigest is the recorded SHA-256 of a workload's first-cycle
// row stream at the default seed and size.
func referenceDigest(name string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[name], nil
}

// runWorkload warms the workload up, then measures it: untraced, for
// end-to-end metrics, or — with opt.trace — an untraced pass over half
// the time followed by a traced pass over the same operations, for
// per-layer metrics. Set-up is timed around and between the operations
// of the untraced pass.
func runWorkload(w workload, sz size, opt options, log io.Writer) (result, error) {
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return result{}, err
	}
	setups, err := newSetupTimer(w, sz, opt, log)
	if err != nil {
		return result{}, err
	}
	l := w.make(sz)
	dir, err := os.MkdirTemp(opt.work, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: opt.seed, dir: dir}
	if err := l.startCycle(); err != nil {
		return result{}, err
	}
	if err := errors.Join(l.warm(e), l.endCycle()); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	e.digest = sha256.New()
	if err := setups.batch(); err != nil {
		return result{}, err
	}
	e.setups = setups

	budget := time.Duration(opt.seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	if !opt.trace {
		p, err := runPass(l, e, budget, 0, log)
		if err != nil {
			return result{}, err
		}
		if err := setups.finish(); err != nil {
			return result{}, err
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		if err := endToEnd(res.Metrics, p, l.mix(), median(setups.ready)); err != nil {
			return result{}, err
		}
	} else {
		plain, err := runPass(l, e, budget/2, 0, log)
		if err != nil {
			return result{}, err
		}
		if err := setups.finish(); err != nil {
			return result{}, err
		}
		e.setups = nil
		tr, err := startTrace(opt, w.name)
		if err != nil {
			return result{}, err
		}
		e.spans, e.rootSpan = tr.spans, tr.root
		traced, err := runPass(l, e, 0, plain.attempted, log)
		if err != nil {
			tr.abort()
			return result{}, err
		}
		ls, err := tr.finish(traced)
		if err != nil {
			return result{}, err
		}
		for _, r := range e.redo {
			if err := redriveRun(e.spans, r, ls); err != nil {
				res.Failed++
				fmt.Fprintf(log, "bench: re-drive: %v\n", err)
			}
		}
		if ls.redriven == 0 {
			res.Failed++
			fmt.Fprintln(log, "bench: the traced pass queued no run to re-drive")
		}
		ls.newRunnerMS = 1e3 * median(setups.newRunner)
		ls.overhead = overhead(plain, traced)
		res.Attempted = plain.attempted + traced.attempted
		res.Failed += plain.failed + traced.failed
		ls.report(res.Metrics)
		if err := tr.writeSpans(); err != nil {
			return result{}, err
		}
	}

	if opt.seed == 1 && sz == defaultSize {
		want, err := referenceDigest(w.name)
		if err != nil {
			return result{}, err
		}
		if e.sum != want {
			res.Failed++
			fmt.Fprintf(log, "bench: %s row stream digest %s, recorded %q\n", w.name, e.sum, want)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// overhead compares each traced operation with the untraced one of the
// same index — the same inputs — and returns the median ratio minus 1.
func overhead(plain, traced pass) float64 {
	wall := map[int]time.Duration{}
	for _, op := range plain.ops {
		wall[op.index] = op.wall
	}
	var ratios []float64
	for _, op := range traced.ops {
		if w, ok := wall[op.index]; ok {
			ratios = append(ratios, op.wall.Seconds()/w.Seconds())
		}
	}
	return orZero(ratios) - 1
}

// endToEnd fills the end-to-end metrics of an untraced pass. A pass
// runs whole cycles and then part of one, so each input's operations are
// first reduced to their mean time and allocation, and the metrics
// describe one cycle of the workload's mix made of those: what one sweep
// of the mix costs.
func endToEnd(m map[string]metric, p pass, mix []int, setupS float64) error {
	type input struct {
		n, rounds   int
		wall, alloc float64
	}
	in := make([]input, len(mix))
	for _, op := range p.ops {
		x := &in[op.input]
		x.n++
		x.rounds = op.rounds
		x.wall += op.wall.Seconds()
		x.alloc += float64(op.allocBytes)
	}
	var rounds, simS, alloc float64
	for i, x := range in {
		if x.n == 0 {
			return fmt.Errorf("no operation of input %d succeeded", i)
		}
		w := float64(mix[i])
		rounds += w * float64(x.rounds)
		alloc += w * x.alloc / float64(x.n)
		if x.rounds > 0 {
			simS += w * x.wall / float64(x.n)
		}
	}
	if rounds == 0 {
		return errors.New("no operation simulated a round")
	}
	m["setup_s"] = metric{setupS, "s"}
	m["rounds_per_s"] = metric{rounds / simS, "1/s"}
	m["alloc_mb_per_round"] = metric{alloc / (1 << 20) / rounds, "MiB"}
	return nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the p-quantile (0.5 < p < 1) of xs by nearest rank,
// refusing one that leaves fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0.5 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0.5, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", 100*p, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
