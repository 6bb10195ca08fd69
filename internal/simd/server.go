package simd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
	"github.com/dsn2020-algorand/incentives/internal/obs"
	"github.com/dsn2020-algorand/incentives/internal/runpool"
)

// Config parameterises one daemon instance.
type Config struct {
	// DataDir persists job specs and checkpoints so a restarted daemon
	// resumes interrupted jobs; empty disables persistence.
	DataDir string
	// MaxWorkers is the worker-slot budget shared by every concurrent
	// job (0 = GOMAXPROCS). Jobs acquire slots FIFO before running.
	MaxWorkers int
	// CacheCells is the completed-cell cache capacity in entries
	// (0 = 4096, negative disables the cache).
	CacheCells int
	// Logf, when non-nil, receives the daemon's operational log lines.
	Logf func(format string, args ...any)
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobInterrupted JobState = "interrupted"
)

// JobStatus is the API's JSON rendering of one job.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Cells is the job's total cell count (grid cells, or sweep runs).
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// CachedCells/RestoredCells split the cells not simulated by this
	// execution: served from the in-memory cache with full rows, or
	// restored audit-only from an interrupted run's checkpoint.
	CachedCells   int `json:"cached_cells"`
	RestoredCells int `json:"restored_cells"`
	// Workers is the slot count granted by the budget (0 until running).
	Workers int `json:"workers,omitempty"`
	// StreamBytes is the wire-stream length so far.
	StreamBytes int `json:"stream_bytes"`
}

// Job is one submitted experiment: its request, the grid it resolved
// to at POST (a sweep job's is its one-scenario grid), its wire-event
// log, and its mutable lifecycle state.
type Job struct {
	id          string
	req         JobRequest
	cfg         experiments.ScenarioGridConfig
	weightsSpec string
	fingerprint string
	cells       int
	log         *eventLog
	resume      bool // recovered from DataDir: restore the checkpoint

	mu        sync.Mutex
	state     JobState
	errText   string
	cellsDone int
	cached    int
	restored  int
	workers   int
}

// ID returns the job's daemon-assigned identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.req.Kind, State: j.state, Error: j.errText,
		Cells: j.cells, CellsDone: j.cellsDone,
		CachedCells: j.cached, RestoredCells: j.restored,
		Workers: j.workers, StreamBytes: j.log.size(),
	}
}

func (j *Job) noteCellDone() {
	j.mu.Lock()
	j.cellsDone++
	j.mu.Unlock()
}

// Server is the simulation daemon: an http.Handler serving the job API
// alongside the obs introspection routes (/metrics, /debug/vars,
// /debug/pprof) on one listener.
type Server struct {
	cfg     Config
	metrics *obs.SimdMetrics
	budget  *runpool.WorkerBudget
	cache   *cellCache
	mux     *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	// live holds the queued or running job of each fingerprint. Jobs of
	// one fingerprint would share one spec file and one checkpoint, so a
	// request matching a live job joins it instead of starting another.
	live map[string]*Job

	draining atomic.Bool
	wg       sync.WaitGroup
}

// New builds a daemon, enabling the global telemetry registry (the
// daemon always exposes /metrics) and re-enqueuing any interrupted jobs
// persisted in cfg.DataDir.
func New(cfg Config) (*Server, error) {
	reg := obs.Enable()
	s := &Server{
		cfg:     cfg,
		metrics: obs.NewSimdMetrics(reg),
		budget:  runpool.NewWorkerBudget(runpool.Resolve(cfg.MaxWorkers)),
		jobs:    make(map[string]*Job),
		live:    make(map[string]*Job),
		mux:     obs.NewMux(reg),
	}
	s.cache = newCellCache(cfg.CacheCells, s.metrics.CellCacheSize)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recoverJobs(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Budget exposes the shared worker budget (tests and status pages).
func (s *Server) Budget() *runpool.WorkerBudget { return s.budget }

// Submit validates and enqueues a job, returning it immediately; the
// job runs as soon as the budget grants its worker slots. The request
// is resolved once, here, into the grid the job runs. A request whose
// fingerprint a queued or running job holds (the same grid at another
// worker count, or a sweep and the grid it equals) returns that job.
// With a DataDir the spec is persisted first, so a daemon killed while
// the job is queued or running re-enqueues it on restart.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	return s.submit(req, false)
}

func (s *Server) submit(req JobRequest, resume bool) (*Job, error) {
	cfg, weightsSpec, err := req.resolve()
	if err != nil {
		return nil, err
	}
	fingerprint := experiments.GridFingerprint(cfg, weightsSpec)
	cells := len(cfg.Scenarios) * len(cfg.Seeds)
	var blob []byte
	if s.cfg.DataDir != "" {
		if blob, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, errors.New("simd: daemon is draining; not accepting jobs")
	}
	if job := s.live[fingerprint]; job != nil {
		s.mu.Unlock()
		return job, nil
	}
	if blob != nil {
		if err := os.WriteFile(s.specPath(fingerprint), blob, 0o644); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.nextID++
	job := &Job{
		id: fmt.Sprintf("job-%d", s.nextID), req: req, cfg: cfg, weightsSpec: weightsSpec,
		fingerprint: fingerprint, cells: cells, log: newEventLog(), resume: resume, state: JobQueued,
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.live[fingerprint] = job
	s.wg.Add(1)
	s.mu.Unlock()
	s.metrics.JobsSubmitted.Add(1)
	s.logf("simd: %s submitted (%s, %d cells)\n", job.id, req.Kind, cells)
	go s.runJob(job)
	return job, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Shutdown drains the daemon: no new jobs are accepted, queued jobs are
// released as interrupted, and running jobs stop at their next cell
// boundary (each completed cell is already durable in its checkpoint).
// It returns once every job has settled or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob drives one job through acquire -> execute -> settle.
func (s *Server) runJob(job *Job) {
	defer s.wg.Done()
	err := s.execute(job)
	job.mu.Lock()
	switch {
	case err == nil:
		job.state = JobDone
	case errors.Is(err, experiments.ErrInterrupted) || errors.Is(err, context.Canceled):
		job.state = JobInterrupted
		job.errText = "interrupted by shutdown; the daemon resumes it on restart"
	default:
		job.state = JobFailed
		job.errText = err.Error()
	}
	state := job.state
	job.mu.Unlock()
	if err == nil {
		s.metrics.JobsCompleted.Add(1)
	} else {
		s.metrics.JobsFailed.Add(1)
	}
	// Leave live before the stream ends, so a client that read the
	// whole stream and resubmits gets a new job. A failed job's durable
	// files move aside first, while no resubmission can have rewritten
	// them: a restart would resume it only to fail the same way.
	var qerr error
	s.mu.Lock()
	if state == JobFailed && s.cfg.DataDir != "" {
		qerr = s.quarantine(job.fingerprint)
	}
	delete(s.live, job.fingerprint)
	s.mu.Unlock()
	if qerr != nil {
		s.logf("simd: %s: %v\n", job.id, qerr)
	}
	job.log.close()
	s.logf("simd: %s %s\n", job.id, state)
}

// execute acquires worker slots and runs the job's kind.
func (s *Server) execute(job *Job) error {
	s.metrics.QueueDepth.Add(1)
	n, release, err := s.budget.Acquire(s.ctx, job.cfg.Workers)
	s.metrics.QueueDepth.Add(-1)
	if err != nil {
		return err // context.Canceled during drain -> interrupted
	}
	defer release()
	job.mu.Lock()
	job.state = JobRunning
	job.workers = n
	job.mu.Unlock()
	s.metrics.JobsInFlight.Add(1)
	defer s.metrics.JobsInFlight.Add(-1)
	return s.executeGrid(job, n)
}

// jobFileBase names a job's durable files after its fingerprint digest,
// so a restart finds the checkpoint of the job it resumes.
func jobFileBase(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return "simd_" + hex.EncodeToString(sum[:8])
}

func (s *Server) specPath(fingerprint string) string {
	return filepath.Join(s.cfg.DataDir, jobFileBase(fingerprint)+".job.json")
}

func (s *Server) ckptPath(fingerprint string) string {
	return filepath.Join(s.cfg.DataDir, jobFileBase(fingerprint)+".ckpt.jsonl")
}

// quarantine renames a failed job's spec and checkpoint with a .failed
// suffix, which recoverJobs does not match, and keeps them for
// inspection. A later failure of the same grid replaces them.
func (s *Server) quarantine(fingerprint string) error {
	var errs []error
	for _, path := range []string{s.specPath(fingerprint), s.ckptPath(fingerprint)} {
		if err := os.Rename(path, path+".failed"); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("quarantining %s: %w", path, err))
		}
	}
	return errors.Join(errs...)
}

// executeGrid streams one job's grid: checkpointed cells restore
// audit-only, cache hits replay their full rows, and everything else
// simulates — all through one sink stack (wire log, cache capture,
// checkpoint last) whose event order the run pool fixes, so the wire
// bytes are identical at any worker count and any cache/restore split.
// Only a resumed job restores from the checkpoint; a fresh one starts a
// new checkpoint.
func (s *Server) executeGrid(job *Job, workers int) error {
	cfg, weightsSpec, fingerprint, cells := job.cfg, job.weightsSpec, job.fingerprint, job.cells
	cfg.Workers = workers

	var prior []experiments.GridCellRecord
	var err error
	persist := s.cfg.DataDir != ""
	if persist && job.resume {
		prior, err = experiments.LoadGridCheckpoint(s.ckptPath(fingerprint), cfg, fingerprint, experiments.ShardSpec{})
		if err != nil {
			return err
		}
	}
	restored := make(map[int]adversary.Report, len(prior))
	for _, rec := range prior {
		restored[rec.Index] = rec.Audit
	}

	// Partition the remaining cells across the cache.
	keys := make(map[int]string, cells)
	cached := make(map[int]*experiments.GridCell)
	for cell := 0; cell < cells; cell++ {
		key := experiments.GridCellFingerprint(cfg, weightsSpec,
			cfg.Scenarios[cell/len(cfg.Seeds)], cfg.Seeds[cell%len(cfg.Seeds)])
		keys[cell] = key
		if _, ok := restored[cell]; ok {
			continue
		}
		if c := s.cache.get(key); c != nil {
			cached[cell] = c
			s.metrics.CellCacheHits.Add(1)
		} else {
			s.metrics.CellCacheMisses.Add(1)
		}
	}
	job.mu.Lock()
	job.cached = len(cached)
	job.restored = len(prior)
	job.mu.Unlock()

	sinks := []experiments.Sink{
		&meteredWireSink{sink: experiments.NewWireSink(job.log), metrics: s.metrics, job: job},
		&cacheSink{cache: s.cache, keys: keys},
	}
	var ckpt *experiments.CheckpointWriter
	if persist {
		// Rewriting heals any torn tail; checkpoint last in the stack so a
		// recorded cell implies every other sink fully consumed it.
		ckpt, err = experiments.CreateGridCheckpoint(s.ckptPath(fingerprint), fingerprint, experiments.ShardSpec{}, prior)
		if err != nil {
			return err
		}
		defer ckpt.Close()
		sinks = append(sinks, experiments.NewCheckpointSink(ckpt, 0))
	}

	opt := experiments.StreamOptions{Restored: restored, Cached: cached, Interrupt: s.draining.Load}
	if err := experiments.StreamScenarioGrid(cfg, experiments.MultiSink(sinks...), opt); err != nil {
		return err
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return err
		}
	}
	if persist {
		// The job completed: its durable state has nothing left to resume.
		// Repeats within this daemon's lifetime hit the in-memory cache
		// (full rows) instead of the checkpoint (audit-only restores).
		os.Remove(s.specPath(fingerprint))
		os.Remove(s.ckptPath(fingerprint))
	}
	return nil
}

// recoverJobs re-enqueues every job whose spec file survived a previous
// daemon: each resumes from its checkpoint, re-simulating only
// unrecorded cells. Jobs that failed were quarantined and stay out.
func (s *Server) recoverJobs() error {
	matches, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "simd_*.job.json"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	for _, path := range matches {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var req JobRequest
		if err := json.Unmarshal(blob, &req); err != nil {
			s.logf("simd: dropping unreadable job spec %s: %v\n", path, err)
			os.Remove(path)
			continue
		}
		job, err := s.submit(req, true)
		if err != nil {
			s.logf("simd: dropping unrunnable job spec %s: %v\n", path, err)
			os.Remove(path)
			continue
		}
		s.logf("simd: resuming interrupted job %s from %s\n", job.id, path)
	}
	return nil
}

// meteredWireSink wraps the job's wire sink with the daemon's stream
// metrics and per-job progress counts.
type meteredWireSink struct {
	sink    experiments.Sink
	metrics *obs.SimdMetrics
	job     *Job
}

func (m *meteredWireSink) CellStart(cell experiments.Cell, columns []string) error {
	return m.sink.CellStart(cell, columns)
}

func (m *meteredWireSink) Row(cell experiments.Cell, row experiments.Row) error {
	m.metrics.RowsStreamed.Add(1)
	return m.sink.Row(cell, row)
}

func (m *meteredWireSink) AuditEvent(cell experiments.Cell, report adversary.Report) error {
	return m.sink.AuditEvent(cell, report)
}

func (m *meteredWireSink) CellDone(cell experiments.Cell) error {
	err := m.sink.CellDone(cell)
	m.metrics.CellsStreamed.Add(1)
	m.job.noteCellDone()
	return err
}

// --- HTTP API ------------------------------------------------------------

// ServeHTTP serves the job API plus the obs introspection routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxJobRequestBytes caps a submitted job request's body. Job specs
// are a few hundred bytes; the cap keeps a client from making the
// daemon read an unbounded body.
const maxJobRequestBytes = 1 << 20

// handleJobs serves POST (submit) and GET (list) on /api/v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req JobRequest
		body := http.MaxBytesReader(w, r.Body, maxJobRequestBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "bad job request: "+err.Error())
			return
		}
		job, err := s.Submit(req)
		if err != nil {
			code := http.StatusBadRequest
			if s.draining.Load() {
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err.Error())
			return
		}
		writeJSON(w, job.Status())
	case http.MethodGet:
		jobs := s.Jobs()
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = j.Status()
		}
		writeJSON(w, out)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleJob serves GET /api/v1/jobs/<id> (status) and
// GET /api/v1/jobs/<id>/stream (the job's wire events, replay + follow).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job "+id)
		return
	}
	switch sub {
	case "":
		writeJSON(w, job.Status())
	case "stream":
		s.streamJob(w, r, job)
	default:
		httpError(w, http.StatusNotFound, "unknown job endpoint "+sub)
	}
}

// streamJob replays the job's wire log from the start and follows it
// until the job settles: NDJSON by default (bytes exactly as the wire
// sink encoded them — the determinism contract's unit), or SSE framing
// (each event line as one `data:` message) when the client asks via
// Accept: text/event-stream or ?sse=1.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, newOff, done := job.log.next(off)
		off = newOff
		if len(chunk) > 0 {
			if sse {
				chunk = sseFrame(chunk)
			}
			if _, err := w.Write(chunk); err != nil {
				return // client went away
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

// sseFrame wraps whole NDJSON lines (the event log never splits one)
// as SSE data messages.
func sseFrame(chunk []byte) []byte {
	var out []byte
	for _, line := range strings.Split(strings.TrimRight(string(chunk), "\n"), "\n") {
		if line == "" {
			continue
		}
		out = append(out, "data: "...)
		out = append(out, line...)
		out = append(out, "\n\n"...)
	}
	return out
}
