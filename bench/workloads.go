package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/protocol"
	"github.com/dsn2020-algorand/incentives/internal/sim"
	"github.com/dsn2020-algorand/incentives/internal/simd"
	"github.com/dsn2020-algorand/incentives/internal/stake"
)

// workload is one named input set. cycle is how long one cycle of its
// loop takes on a 2-vCPU host; the harness derives a child's deadline
// from it.
type workload struct {
	name  string
	cycle time.Duration
	make  func(size) loop
}

// The workloads, in the order the harness runs them. BENCHMARK.json and
// README.md say why each one exists.
//
// The fig3 workloads run two rounds per run: round 1 alone is not a
// steady-state round (at 25% defection it executes 2.4M events against
// 6.1M in round 2), and only later rounds exercise weight refreshes,
// ledger growth and sortition-cache reuse across rounds. Two rounds of
// all six rates do not fit a run, so the dense sweep takes every other
// rate.
var workloads = []workload{
	{"fig3_dense_500", 18 * time.Second, func(sz size) loop {
		f := &fig3Loop{nodes: 500, runs: 2, rounds: 2, rates: []float64{0.05, 0.15, 0.25}}
		if sz == tinySize {
			f.nodes = 20
		}
		return f
	}},
	{"fig3_sparse_50k", 28 * time.Second, func(sz size) loop {
		f := &fig3Loop{nodes: 50000, runs: 2, rounds: 2, rates: []float64{0.10, 0.20}, sparse: true}
		if sz == tinySize {
			f.nodes = 500
		}
		return f
	}},
	{"grid_full_200", 22 * time.Second, func(sz size) loop {
		if sz == tinySize {
			return &gridLoop{nodes: 20, rounds: 2}
		}
		return &gridLoop{nodes: 200, rounds: 12}
	}},
	{"simd_jobs", 4 * time.Second, func(sz size) loop {
		if sz == tinySize {
			return &simdLoop{nodes: 20, rounds: 2, cached: 100}
		}
		return &simdLoop{nodes: 100, rounds: 12, cached: 100}
	}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// newRunner samples a population and builds one protocol.Runner, the
// per-run construction every workload pays; it reports how long
// NewRunner took.
func newRunner(dist stake.Distribution, n int, params protocol.Params, fanout int, sparse protocol.SparseMode, seed int64) (time.Duration, error) {
	pop, err := stake.SamplePopulation(dist, n, sim.NewRNG(seed, "bench.setup"))
	if err != nil {
		return 0, err
	}
	behaviors := make([]protocol.Behavior, n)
	for i := range behaviors {
		behaviors[i] = protocol.Honest
	}
	start := time.Now()
	_, err = protocol.NewRunner(protocol.Config{
		Params: params, Stakes: pop.Stakes, Behaviors: behaviors,
		Fanout: fanout, Seed: seed, Sparse: sparse,
	})
	return time.Since(start), err
}

func noRelease() error { return nil }

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// fig3Loop is the Fig. 3 defection sweep: one operation is one
// defection rate (Runs runs of Rounds rounds on both workers), and one
// cycle sweeps every rate once.
type fig3Loop struct {
	nodes, runs, rounds int
	rates               []float64
	// sparse selects LargeFig3Config's absolute committee taus and the
	// sparse round path (which they engage on their own at 50k nodes).
	sparse bool
}

func (f *fig3Loop) cycleLen() int     { return len(f.rates) }
func (f *fig3Loop) mix() []int        { return ones(len(f.rates)) }
func (f *fig3Loop) startCycle() error { return nil }
func (f *fig3Loop) endCycle() error   { return nil }

// config is the sweep at one rate. The simulation seed stays the
// config's own, so every run simulates the same work (see cycleOrder).
func (f *fig3Loop) config(rate float64) experiments.Fig3Config {
	cfg := experiments.DefaultFig3Config()
	if f.sparse {
		cfg = experiments.LargeFig3Config(f.nodes)
		cfg.Sparse = protocol.SparseOn
	}
	cfg.Nodes, cfg.Runs, cfg.Rounds = f.nodes, f.runs, f.rounds
	cfg.DefectionRates = []float64{rate}
	cfg.Workers = workers
	return cfg
}

func (f *fig3Loop) setup(e *env) (time.Duration, func() error, error) {
	cfg := f.config(f.rates[0])
	nr, err := newRunner(cfg.StakeDist, cfg.Nodes, cfg.Params, cfg.Fanout, cfg.Sparse, cfg.Seed)
	return nr, noRelease, err
}

func (f *fig3Loop) op(e *env, i int) (opStats, error) {
	k := cycleOrder(e.seed, i, len(f.rates))
	st, err := f.sweep(e, f.config(f.rates[k]), i < len(f.rates))
	st.input = k
	return st, err
}

// sweep runs one rate and checks its rows. With redo set, a traced pass
// keeps run 0 for the re-drive.
func (f *fig3Loop) sweep(e *env, cfg experiments.Fig3Config, redo bool) (opStats, error) {
	check := newCheckSink()
	cfg.Sink = check
	_, err := experiments.RunFig3(cfg)
	wall := time.Since(check.start)
	if err != nil {
		return opStats{}, err
	}
	if err := check.expect(cfg.Runs, cfg.Rounds); err != nil {
		return opStats{}, err
	}
	e.addDigest(check)
	if e.spans != nil && redo {
		run0 := check.cells[0]
		e.redo = append(e.redo, redrive{
			label: "fig3.setup", seed: run0.cell.Seed, nodes: cfg.Nodes, rounds: cfg.Rounds,
			defect: cfg.DefectionRates[0], params: cfg.Params, fanout: cfg.Fanout, dist: cfg.StakeDist,
			weightBackend: cfg.WeightBackend, sparse: cfg.Sparse, rows: run0.rows,
		})
	}
	return opStats{rounds: cfg.Runs * cfg.Rounds, wall: wall}, nil
}

// warm sweeps the first rate for one round.
func (f *fig3Loop) warm(e *env) error {
	cfg := f.config(f.rates[0])
	cfg.Rounds = 1
	_, err := f.sweep(e, cfg, false)
	return err
}

// cycleOrder maps operation i to its input in a cycle of n: each cycle
// covers every input once, in an order drawn from the workload seed.
//
// The seed orders the inputs but never changes a simulation seed. The
// work one simulation does depends strongly on its seed — at 50k nodes
// one run costs 3x another — so runs with different workload seeds
// would otherwise measure different amounts of work.
func cycleOrder(seed int64, i, n int) int {
	return rand.New(rand.NewSource(seed*7919 + int64(i/n))).Perm(n)[i%n]
}

// scenarioPairs splits the registered scenarios, in name order, into
// disjoint pairs.
func scenarioPairs() [][]string {
	names := adversary.Names()
	var pairs [][]string
	for k := 0; k+1 < len(names); k += 2 {
		pairs = append(pairs, names[k:k+2])
	}
	return pairs
}

// honestRedrive returns the re-drive of a grid's honest_baseline cell,
// if the stream held one.
func honestRedrive(cfg experiments.ScenarioGridConfig, check *checkSink) (redrive, bool) {
	for _, c := range check.cells {
		if c.cell.Name == adversary.HonestBaseline {
			return redrive{
				label: "scenario.setup", seed: c.cell.Seed, nodes: cfg.Nodes, rounds: cfg.Rounds,
				params: cfg.Params, fanout: cfg.Fanout, dist: cfg.StakeDist,
				weightBackend: cfg.WeightBackend, sparse: cfg.Sparse, rows: c.rows,
			}, true
		}
	}
	return redrive{}, false
}

// gridLoop is the `scenario -full` robustness grid: one operation, and
// one cycle, streams every registered scenario at seed 1, in registry
// order as the CLI runs them, into the CLI's sink stack. The workload
// seed does not change it: the cells differ in cost, so reordering them
// moves the two workers' makespan by up to a cell.
type gridLoop struct {
	nodes, rounds int
}

func (g *gridLoop) cycleLen() int     { return 1 }
func (g *gridLoop) mix() []int        { return ones(1) }
func (g *gridLoop) startCycle() error { return nil }
func (g *gridLoop) endCycle() error   { return nil }

func (g *gridLoop) config() experiments.ScenarioGridConfig {
	cfg := experiments.FullScenarioGridConfig()
	cfg.Seeds = []int64{1}
	cfg.Nodes, cfg.Rounds = g.nodes, g.rounds
	cfg.Workers = workers
	return cfg
}

// fullStack is the sink stack `scenario -full` streams a grid into:
// per-cell text, CSVs, the stream summary, and the fsync'd checkpoint
// last.
type fullStack struct {
	sink    experiments.Sink
	ckpt    *experiments.CheckpointWriter
	csv     *experiments.GridCSVSink
	summary *experiments.SummarySink
}

func newFullStack(cfg experiments.ScenarioGridConfig, dir string) (fullStack, error) {
	whole := experiments.ShardSpec{}
	ckpt, err := experiments.CreateGridCheckpoint(filepath.Join(dir, experiments.GridCheckpointName(whole)),
		experiments.GridFingerprint(cfg, ""), whole, nil)
	if err != nil {
		return fullStack{}, err
	}
	s := fullStack{
		ckpt:    ckpt,
		csv:     experiments.NewGridCSVSink(dir, cfg, "full_grid_summary.csv"),
		summary: experiments.NewSummarySink(0),
	}
	s.sink = experiments.MultiSink(&experiments.GridTextSink{W: io.Discard}, s.csv, s.summary, experiments.NewCheckpointSink(ckpt, 0))
	return s, nil
}

func (s fullStack) close() error { return errors.Join(s.ckpt.Close(), s.csv.Close()) }

// finish closes the stack after a complete grid and writes the stream
// summary, as the CLI does.
func (s fullStack) finish(dir string) error {
	if err := s.close(); err != nil {
		return err
	}
	table, err := s.summary.Table()
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "full_grid_stream_summary.csv"))
	if err != nil {
		return err
	}
	return errors.Join(table.WriteCSV(f), f.Close())
}

func (g *gridLoop) setup(e *env) (time.Duration, func() error, error) {
	cfg := g.config()
	dir, err := os.MkdirTemp(e.dir, "setup-")
	if err != nil {
		return 0, nil, err
	}
	stack, err := newFullStack(cfg, dir)
	if err != nil {
		return 0, nil, errors.Join(err, os.RemoveAll(dir))
	}
	release := func() error { return errors.Join(stack.close(), os.RemoveAll(dir)) }
	nr, err := newRunner(cfg.StakeDist, cfg.Nodes, cfg.Params, cfg.Fanout, cfg.Sparse, cfg.Seeds[0])
	if err != nil {
		return 0, nil, errors.Join(err, release())
	}
	return nr, release, nil
}

func (g *gridLoop) op(e *env, i int) (opStats, error) {
	return g.stream(e, g.config(), fmt.Sprintf("grid-%d", i), i == 0)
}

// stream runs the grid cfg into a fresh sink stack in e.dir/name and
// checks its rows. With redo set, a traced pass keeps the
// honest_baseline cell for the re-drive.
func (g *gridLoop) stream(e *env, cfg experiments.ScenarioGridConfig, name string, redo bool) (opStats, error) {
	dir := filepath.Join(e.dir, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return opStats{}, err
	}
	defer os.RemoveAll(dir)
	check := newCheckSink()
	stack, err := newFullStack(cfg, dir)
	if err != nil {
		return opStats{}, err
	}
	sink := stack.sink
	if e.spans != nil {
		sink = timedSink{sink: sink, spans: e.spans, parent: e.opSpan}
	}
	err = experiments.StreamScenarioGrid(cfg, experiments.MultiSink(sink, check), experiments.StreamOptions{})
	if err != nil {
		return opStats{}, errors.Join(err, stack.close())
	}
	if err := stack.finish(dir); err != nil {
		return opStats{}, err
	}
	wall := time.Since(check.start)
	if err := check.expect(len(cfg.Scenarios), cfg.Rounds); err != nil {
		return opStats{}, err
	}
	e.addDigest(check)
	if r, ok := honestRedrive(cfg, check); ok && e.spans != nil && redo {
		e.redo = append(e.redo, r)
	}
	return opStats{rounds: len(cfg.Scenarios) * cfg.Rounds, wall: wall}, nil
}

// warm streams the grid at two rounds a cell.
func (g *gridLoop) warm(e *env) error {
	cfg := g.config()
	cfg.Rounds = 2
	_, err := g.stream(e, cfg, "warm", false)
	return err
}

// simdLoop serves grid jobs from an in-process daemon over HTTP, one
// job in flight on one connection. Each cycle starts a fresh daemon,
// submits one cold job per scenario pair (seed 1 each), then re-submits
// those specs `cached` times, served from the completed-cell cache. The
// workload seed orders the submissions.
type simdLoop struct {
	nodes, rounds, cached int

	srv    *simd.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *simd.Client
	cold   [][]byte // this cycle's cold stream per spec
}

func (s *simdLoop) cycleLen() int { return len(adversary.Names())/2 + s.cached }

// mix is one cold job per spec, then the cached re-submissions spread
// evenly over the specs; inputs are cold specs first, then cached ones.
func (s *simdLoop) mix() []int {
	specs := len(adversary.Names()) / 2
	out := ones(2 * specs)
	for k := specs; k < 2*specs; k++ {
		out[k] = s.cached / specs
	}
	return out
}

func (s *simdLoop) requests() []simd.JobRequest {
	var reqs []simd.JobRequest
	for _, pair := range scenarioPairs() {
		reqs = append(reqs, simd.JobRequest{Kind: simd.KindGrid, Grid: &simd.GridJobSpec{
			CommonSpec: simd.CommonSpec{Workers: workers},
			Scenarios:  pair, Seeds: 1, Nodes: s.nodes, Rounds: s.rounds,
		}})
	}
	return reqs
}

// serve starts a daemon with the workload's budget behind an HTTP
// client that keeps at most one connection.
func (s *simdLoop) serve() error {
	srv, err := simd.New(simd.Config{MaxWorkers: workers})
	if err != nil {
		return err
	}
	s.srv = srv
	s.hs = httptest.NewServer(srv)
	s.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.client = &simd.Client{Base: s.hs.URL, HTTP: &http.Client{Transport: s.tr}}
	return nil
}

func (s *simdLoop) setup(e *env) (time.Duration, func() error, error) {
	if err := s.serve(); err != nil {
		return 0, nil, err
	}
	cfg, err := s.requests()[0].Grid.Config()
	if err != nil {
		return 0, nil, errors.Join(err, s.endCycle())
	}
	nr, err := newRunner(cfg.StakeDist, cfg.Nodes, cfg.Params, cfg.Fanout, cfg.Sparse, cfg.Seeds[0])
	if err != nil {
		return 0, nil, errors.Join(err, s.endCycle())
	}
	return nr, s.endCycle, nil
}

func (s *simdLoop) startCycle() error {
	s.cold = make([][]byte, s.cycleLen()-s.cached)
	return s.serve()
}

func (s *simdLoop) endCycle() error {
	s.tr.CloseIdleConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// warm serves one cycle's cold jobs.
func (s *simdLoop) warm(e *env) error {
	for i := range s.cold {
		if _, err := s.op(e, i); err != nil {
			return err
		}
	}
	return nil
}

func (s *simdLoop) op(e *env, i int) (opStats, error) {
	reqs := s.requests()
	n := s.cycleLen()
	j := i % n
	k := cycleOrder(e.seed, (i/n)*len(reqs)+j%len(reqs), len(reqs))
	cold := j < len(reqs)

	start := time.Now()
	st, err := s.client.Submit(reqs[k])
	submitted := time.Now()
	if err != nil {
		return opStats{}, err
	}
	body, err := s.client.Stream(st.ID)
	if err != nil {
		return opStats{}, err
	}
	var stream bytes.Buffer
	var firstByte, firstCell time.Time
	br := bufio.NewReader(body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if stream.Len() == 0 {
				firstByte = time.Now()
			}
			if firstCell.IsZero() && bytes.Contains(line, []byte(`"event":"cell_done"`)) {
				firstCell = time.Now()
			}
			stream.Write(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			body.Close()
			return opStats{}, err
		}
	}
	body.Close()
	end := time.Now()
	e.spans.add("http.submit", e.opSpan, start, submitted)
	e.spans.add("http.first_byte", e.opSpan, submitted, firstByte)
	e.spans.add("http.eof", e.opSpan, firstByte, end)

	check := newCheckSink()
	if err := experiments.ReplayWire(bytes.NewReader(stream.Bytes()), check); err != nil {
		return opStats{}, fmt.Errorf("job %s: replay: %w", st.ID, err)
	}
	pair := reqs[k].Grid.Scenarios
	if err := check.expect(len(pair), s.rounds); err != nil {
		return opStats{}, fmt.Errorf("job %s: %w", st.ID, err)
	}
	op := opStats{input: k, wall: end.Sub(start), firstCell: firstCell.Sub(start), streamBytes: stream.Len()}
	if !cold {
		op.input += len(reqs)
	}
	if cold {
		s.cold[k] = stream.Bytes()
		e.addDigest(check)
		op.rounds = len(pair) * s.rounds
		if e.spans != nil && i < len(reqs) {
			cfg, err := reqs[k].Grid.Config()
			if err != nil {
				return opStats{}, err
			}
			if r, ok := honestRedrive(cfg, check); ok {
				e.redo = append(e.redo, r)
			}
		}
	} else if !bytes.Equal(stream.Bytes(), s.cold[k]) {
		return opStats{}, fmt.Errorf("job %s: cached stream differs from its cold stream", st.ID)
	}
	return op, nil
}
