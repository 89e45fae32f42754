// Package server implements emsd, the long-running matching service: an
// HTTP/JSON front end over the ems engine with an async job queue, a
// bounded worker pool, a content-addressed LRU result cache, and a
// concurrent-safe metrics surface.
//
// Request flow: POST /v1/jobs parses the two logs and options, computes the
// content key, and either (a) answers from the cache, (b) coalesces onto an
// identical in-flight job, or (c) enqueues a fresh computation on the pool.
// Clients poll GET /v1/jobs/{id}, fetch GET /v1/jobs/{id}/result, and may
// abort with DELETE /v1/jobs/{id}. Jobs run under per-job wall-clock
// deadlines, panics inside a computation fail only that job, and a full
// queue sheds new submissions instead of accepting unbounded work. Shutdown
// drains running jobs within a grace period, then interrupts the stragglers
// in-engine.
//
// With Config.DataDir set the server is additionally crash-safe: jobs are
// journaled to a write-ahead log, running computations persist periodic
// engine checkpoints, and results are stored on disk. A restart on the same
// directory replays the journal, re-enqueues unfinished jobs (resuming from
// their last checkpoint), and serves persisted results under the original
// job IDs.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"sync"

	"repro/ems"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config sizes a Server.
type Config struct {
	// Workers bounds concurrent match computations; <= 0 uses GOMAXPROCS.
	Workers int
	// EngineWorkers is the per-job worker budget of the core iteration
	// engine (ems.WithWorkers): each running job may split its similarity
	// rounds across this many goroutines. 0 derives it from the machine
	// budget as max(1, GOMAXPROCS/Workers), so the job pool and the engine
	// pool compose to roughly GOMAXPROCS total instead of multiplying.
	// Negative forces the serial engine. Engine workers never change
	// results, so the result cache is shared across settings.
	EngineWorkers int
	// CacheSize bounds the result cache (entries); 0 uses the default
	// (128), negative disables caching.
	CacheSize int
	// MaxJobs bounds the job registry; once exceeded, the oldest terminal
	// jobs are forgotten (their IDs 404 afterwards). 0 uses the default
	// (10000).
	MaxJobs int
	// AllowPaths permits LogInput.Path (reading logs from the server's
	// filesystem). Off by default: inline-only keeps the service safe to
	// expose beyond localhost.
	AllowPaths bool
	// JobTimeout is the default per-job wall-clock deadline, counted from
	// the moment a worker picks the job up. 0 means no default deadline.
	// Requests can override it via options.timeout_ms, clamped to
	// MaxJobTimeout. A job that exceeds its deadline fails with a
	// "deadline exceeded" error; it does not count as cancelled.
	JobTimeout time.Duration
	// MaxJobTimeout caps every effective job deadline, including requests
	// that ask for no deadline at all. 0 means no cap.
	MaxJobTimeout time.Duration
	// MaxQueueDepth bounds the number of queued-but-not-running jobs; a
	// submission that would exceed it is shed with ErrQueueFull (HTTP 503 +
	// Retry-After) instead of growing the queue without bound. <= 0 is
	// unbounded. Cache hits and coalesced submissions are always served.
	MaxQueueDepth int
	// MaxBodyBytes bounds a submission body (inline logs included); 0 uses
	// the default 64 MiB. Oversized requests get HTTP 413.
	MaxBodyBytes int64
	// DataDir enables crash-safe persistence: submitted jobs are journaled
	// to a write-ahead log under this directory together with their request
	// bodies, periodic engine checkpoints, and finished results. On the next
	// start with the same directory, the journal is replayed: unfinished jobs
	// are re-enqueued (running ones resume from their last checkpoint) and
	// persisted results are served again. Empty disables persistence.
	DataDir string
	// CheckpointEvery is the engine-round interval between persisted
	// checkpoints of a running job; <= 0 uses the default (16). Only
	// meaningful with DataDir. Smaller values lose less work on a crash but
	// cost more I/O per round.
	CheckpointEvery int
	// JobRetries bounds in-process retries of a job whose computation
	// panicked: such a failure is not a property of the input (deterministic
	// input errors are never retried), so the job is re-enqueued with backoff
	// up to this many times before failing. 0 disables retries. Only
	// meaningful with DataDir (the retry resumes from the last checkpoint).
	JobRetries int
	// RetryBackoff is the delay before the first retry, doubling with each
	// further attempt; <= 0 uses the default (50ms).
	RetryBackoff time.Duration
	// SlowJobThreshold arms the slow-job log: a computed job whose wall time
	// reaches the threshold gets its span timeline dumped at WARN level so
	// the slow phase is identifiable after the fact. 0 disables the dump.
	SlowJobThreshold time.Duration
	// TraceSample is the fraction of traces published to the queryable trace
	// store (GET /v1/traces). Sampling hashes the trace ID, so every cluster
	// node keeps the same traces. 0 means store everything; negative stores
	// nothing.
	TraceSample float64
	// TraceRetain bounds the trace store (traces per node); <= 0 uses the
	// default (512).
	TraceRetain int
	// NodeID names this node in a cluster. It feeds the consistent-hash ring
	// (placement hashes IDs, not addresses), qualifies forwarded job IDs,
	// and appears in /healthz, /v1/version and /v1/cluster. Empty defaults
	// to "emsd".
	NodeID string
	// Cluster joins this node to an emsd cluster; nil runs standalone.
	// Standalone nodes still serve POST /v1/batch — the coordinator just
	// places every pair locally.
	Cluster *ClusterConfig
	// MaxBatchPairs bounds the pair count of one POST /v1/batch (grid
	// product or explicit list); <= 0 uses the default (4096).
	MaxBatchPairs int
	// MemBudget arms the resource governor: every fresh job's peak engine
	// memory is predicted before allocation (ems.EstimateCost) and admitted
	// against this global byte budget, so queued+running work is bounded by
	// predicted bytes, not job count. A job whose prediction alone exceeds
	// the budget is rejected up front with *ems.TooLargeError (HTTP 413); a
	// job that merely doesn't fit right now is shed with ErrSaturated
	// (HTTP 503 + Retry-After). Past PressureFraction of the budget the
	// degradation ladder kicks in. <= 0 disables the governor.
	MemBudget int64
	// PressureFraction is the committed fraction of MemBudget at which the
	// node reports "pressured" and starts degrading jobs; <= 0 or > 1 uses
	// the default 0.75.
	PressureFraction float64
	// Log receives operational messages as structured records (contained job
	// panics, persistence failures, slow-job timelines). nil uses
	// slog.Default.
	Log *slog.Logger
}

// requestError marks a client-side (HTTP 400) submission failure.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// IsRequestError reports whether err stems from a malformed submission
// rather than a server-side failure.
func IsRequestError(err error) bool {
	var re *requestError
	return errors.As(err, &re)
}

// Server is the emsd service state. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	pool    *pool
	persist *persister // nil without DataDir
	obs     *serverObs
	cluster *serverCluster
	gov     *governor // nil without MemBudget
	traces  *obs.TraceStore
	flight  *obs.FlightRecorder

	// govLast is the governor state the flight recorder last saw; transition
	// events are emitted on change.
	govLast atomic.Value // GovernorState

	ctx    context.Context
	cancel context.CancelFunc

	// batchWG tracks running batch coordinators; Shutdown waits for them
	// after cancelling the base context.
	batchWG sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string // insertion order, for bounded retention
	inflight map[string]*Job
	nextID   uint64
	closed   bool
}

// New creates a Server and starts its worker pool. With Config.DataDir set
// it also opens (or recovers) the data directory: the job journal is
// replayed, unfinished jobs are re-enqueued — running ones resume from their
// last persisted checkpoint — and persisted results are reloaded on demand.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.EngineWorkers == 0 {
		if cfg.EngineWorkers = runtime.GOMAXPROCS(0) / cfg.Workers; cfg.EngineWorkers < 1 {
			cfg.EngineWorkers = 1
		}
	}
	if cfg.EngineWorkers < 0 {
		cfg.EngineWorkers = 1
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.CacheSize < 0 {
		cfg.CacheSize = 0
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 10000
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 16
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.NodeID == "" {
		cfg.NodeID = "emsd"
	}
	sc, err := newServerCluster(cfg.NodeID, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	var p *persister
	if cfg.DataDir != "" {
		var err error
		if p, err = openPersister(cfg.DataDir, cfg.Log); err != nil {
			return nil, err
		}
	}
	sample := cfg.TraceSample
	switch {
	case sample == 0:
		sample = 1 // store everything by default
	case sample < 0:
		sample = 0
	}
	flightDir := ""
	if cfg.DataDir != "" {
		flightDir = filepath.Join(cfg.DataDir, "flightrec")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheSize),
		persist:  p,
		cluster:  sc,
		gov:      newGovernor(cfg.MemBudget, cfg.PressureFraction),
		traces:   obs.NewTraceStore(cfg.TraceRetain, sample),
		flight:   obs.NewFlightRecorder(256, flightDir, cfg.NodeID),
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	s.govLast.Store(s.governorState())
	if p != nil {
		s.cache.onEvict = p.deleteResult
	}
	s.pool = newPool(cfg.Workers, cfg.MaxQueueDepth, s.runJob)
	// The registry's gauge closures read the pool/cache/persister, so it is
	// built only once those exist — and before recovery, whose re-enqueued
	// jobs already count.
	s.obs = newServerObs(s)
	if sc.clustered() {
		// Health transitions drive the per-peer up/down gauge; the background
		// prober keeps the view fresh between requests and stops with s.ctx.
		clients := make([]*cluster.Client, 0, len(sc.clients))
		for _, cl := range sc.clients {
			clients = append(clients, cl)
		}
		sc.health = cluster.NewHealth(clients, func(id string, up bool) {
			s.obs.peerUpGauge(id, up)
		})
		go sc.health.Run(s.ctx, sc.cfg.ProbeInterval)
	}
	if p != nil {
		s.recoverJobs()
	}
	return s, nil
}

// Registry exposes the server's Prometheus registry (also served at
// GET /metrics) so embedders can add their own instruments.
func (s *Server) Registry() *obs.Registry { return s.obs.reg }

// errCancelledByClient is the cancellation cause installed by Cancel; runJob
// uses it to distinguish a client abort from shutdown or a deadline.
var errCancelledByClient = errors.New("server: job cancelled by client")

// resolveTimeout derives a job's effective deadline from the server default
// and the request override, clamping to the configured maximum.
func (s *Server) resolveTimeout(overrideMS *float64) (time.Duration, error) {
	d := s.cfg.JobTimeout
	if overrideMS != nil {
		if *overrideMS < 0 {
			return 0, fmt.Errorf("options: timeout_ms must be >= 0, got %g", *overrideMS)
		}
		d = time.Duration(*overrideMS * float64(time.Millisecond))
	}
	if max := s.cfg.MaxJobTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d, nil
}

// preparedJob is a validated, resolved request: everything a worker needs
// to run the computation. Submit builds one per submission; recovery builds
// one from each persisted request body.
type preparedJob struct {
	l1, l2  *ems.Log
	opts    []ems.Option
	key     string
	timeout time.Duration
	cost    *ems.Cost // predicted peak footprint; nil when the governor is off
}

// prepare validates a request and resolves it into a preparedJob. Errors are
// the client's fault (the request is malformed or disallowed).
func (s *Server) prepare(req JobRequest) (*preparedJob, error) {
	if (req.Log1.Path != "" || req.Log2.Path != "") && !s.cfg.AllowPaths {
		return nil, fmt.Errorf("log paths are disabled on this server (start emsd with -allow-paths)")
	}
	l1, skip1, err := req.Log1.resolve("log1")
	if err != nil {
		return nil, err
	}
	l2, skip2, err := req.Log2.resolve("log2")
	if err != nil {
		return nil, err
	}
	if n := skip1 + skip2; n > 0 {
		s.metrics.add(ingestSkipped, uint64(n))
	}
	opts, optKey, err := req.Options.build()
	if err != nil {
		return nil, err
	}
	timeout, err := s.resolveTimeout(req.Options.TimeoutMS)
	if err != nil {
		return nil, err
	}
	// The engine-worker budget is appended after the cache key is derived:
	// worker counts never change results, so jobs submitted under different
	// budgets still coalesce and share cache entries.
	opts = append(opts, ems.WithWorkers(s.cfg.EngineWorkers))
	pj := &preparedJob{l1: l1, l2: l2, opts: opts, key: CacheKey(l1, l2, optKey), timeout: timeout}
	if s.gov != nil {
		// The prediction only needs the dependency graphs (small next to the
		// matrices it predicts); an estimation failure just means the job is
		// admitted ungoverned rather than rejected.
		if c, cerr := ems.EstimateCost(pj.l1, pj.l2, opts...); cerr == nil {
			pj.cost = c
		}
	}
	return pj, nil
}

// Submit validates a request and returns its job handle. The job may
// already be terminal (cache hit). Errors satisfying IsRequestError are the
// client's fault; ErrShuttingDown means the server no longer accepts work.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	return s.SubmitContext(context.Background(), req)
}

// SubmitContext is Submit with an observability context: a trace carried by
// ctx (obs.ContextWithTrace, installed by the HTTP middleware from the
// X-Request-ID header) is attached to the job, spans every phase of its
// computation, and surfaces in the job's views. A ctx without a trace gets a
// generated one. The ctx does NOT govern the job's lifetime — cancellation
// stays with DELETE /v1/jobs/{id} and server shutdown, so a client
// disconnecting after the 202 does not kill its job.
func (s *Server) SubmitContext(ctx context.Context, req JobRequest) (*Job, error) {
	tr := s.traceOrNew(ctx)
	endParse := tr.Span("parse")
	pj, err := s.prepare(req)
	endParse()
	if err != nil {
		s.metrics.inc(jobsRejected)
		return nil, &requestError{err}
	}
	return s.submitPrepared(req, tr, pj)
}

// traceOrNew extracts the request trace from ctx, generating a node-stamped
// one (span-end histogram hook armed) for untraced callers.
func (s *Server) traceOrNew(ctx context.Context) *obs.Trace {
	if tr := obs.TraceFrom(ctx); tr != nil {
		return tr
	}
	return s.newTrace("")
}

// newTrace builds a trace owned by this node: node ID stamped and the
// span-end hook armed, matching what the HTTP middleware installs.
func (s *Server) newTrace(id string) *obs.Trace {
	tr := obs.NewTrace(id)
	tr.SetNode(s.cfg.NodeID)
	tr.OnSpanEnd(s.observeSpanEnd)
	return tr
}

// observeSpanEnd feeds the per-phase duration histogram from every ended
// span. Span names are bounded (fixed pipeline/engine phase names plus
// "peer:<node>"), so the phase label cardinality is bounded too.
func (s *Server) observeSpanEnd(sp *obs.Span) {
	degraded := strconv.FormatBool(sp.Trace().Attr("degraded") != "")
	s.obs.phaseDur.With(sp.Name(), degraded).Observe(sp.Duration().Seconds())
}

// recordTrace publishes a kept trace's current span snapshot to the trace
// store (unkept traces — polls, scrapes, trace queries — are never stored).
func (s *Server) recordTrace(tr *obs.Trace) {
	if tr != nil && tr.Kept() {
		s.traces.Record(tr)
	}
}

// noteGovernor emits a flight-recorder event when the governor's state
// changed since the last call.
func (s *Server) noteGovernor() {
	if s.gov == nil {
		return
	}
	cur := s.governorState()
	if prev := s.govLast.Swap(cur).(GovernorState); prev != cur {
		s.flight.Note("governor", "from", string(prev), "to", string(cur))
	}
}

// submitPrepared is the admission half of SubmitContext: cache lookup,
// coalescing, journaling, enqueue. Split out so the HTTP handler can decide
// on cluster forwarding between prepare (which computes the placement key)
// and local admission.
func (s *Server) submitPrepared(req JobRequest, tr *obs.Trace, pj *preparedJob) (*Job, error) {
	// Submissions are the traces worth keeping; the middleware publishes
	// kept traces to the store when the request ends, and completeJob
	// re-publishes once the engine spans exist.
	tr.Keep()
	// Degradation ladder: under memory pressure the request is rewritten one
	// or two rungs down before the cache lookup, so the degraded variant gets
	// its own cache key and coalesces with other degraded submissions.
	req, pj, rung, shed := s.applyLadder(req, pj)
	if shed {
		s.metrics.inc(jobsShed)
		s.flight.Note("shed", "reason", "no-degrade-under-pressure")
		s.flight.Dump("shed", "reason", "no-degrade-under-pressure")
		return nil, ErrSaturated
	}
	if rung != "" {
		// Trace-level so the span-end hook labels every later span of this
		// job as degraded.
		tr.SetAttr("degraded", rung)
	}
	key := pj.key

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.inc(jobsRejected)
		return nil, ErrShuttingDown
	}
	s.nextID++
	job := newJob(fmt.Sprintf("job-%06d", s.nextID))
	job.trace = tr
	s.registerLocked(job)
	s.metrics.inc(jobsSubmitted)

	// (a) Completed result already cached.
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		s.metrics.inc(cacheHits)
		tr.StartSpan("cache-hit").End()
		job.finish(StatusDone, res, "", 0, true)
		s.metrics.JobDone(StatusDone, 0, false)
		s.recordTrace(tr)
		return job, nil
	}
	// (b) Identical job already queued or running: coalesce.
	if leader, ok := s.inflight[key]; ok {
		leader.followers = append(leader.followers, job)
		s.mu.Unlock()
		s.metrics.inc(cacheHits)
		return job, nil
	}
	// (c) Fresh computation: reserve the job's predicted footprint against
	// the memory budget before it can allocate anything. The reservation is
	// taken under s.mu together with registration, so a concurrent Cancel
	// cannot complete the job between admission and the cost being recorded.
	if s.gov != nil && pj.cost != nil {
		if aerr := s.gov.admit(pj.cost.Bytes); aerr != nil {
			s.mu.Unlock()
			if errors.Is(aerr, errJobTooLarge) {
				s.metrics.inc(jobsTooLarge)
				s.flight.Note("reject", "job", job.ID, "reason", "too-large")
				tle := &ems.TooLargeError{Predicted: *pj.cost, BudgetBytes: s.gov.budget}
				s.completeJob(job, StatusFailed, nil, tle.Error(), 0, false)
				return nil, tle
			}
			s.metrics.inc(jobsShed)
			s.flight.Note("shed", "job", job.ID, "reason", "saturated")
			s.completeJob(job, StatusCancelled, nil, ErrSaturated.Error(), 0, false)
			s.flight.Dump("shed", "job", job.ID, "reason", "saturated")
			return nil, ErrSaturated
		}
		job.cost = pj.cost.Bytes
		s.noteGovernor()
	}
	if rung != "" {
		job.degraded = rung
		s.metrics.inc(jobsDegraded)
		s.flight.Note("degrade", "job", job.ID, "rung", rung)
		s.flight.Dump("degraded", "job", job.ID, "rung", rung)
	}
	job.key = key
	job.pair = ems.PairInput{Name: job.ID, Log1: pj.l1, Log2: pj.l2}
	job.opts = pj.opts
	job.composite = req.Options.Composite
	if !job.composite {
		job.prog = &progress{}
	}
	job.timeout = pj.timeout
	job.ctx, job.cancel = context.WithCancelCause(s.ctx)
	seq := s.nextID
	s.inflight[key] = job
	s.mu.Unlock()
	s.metrics.inc(cacheMisses)
	// Queue depth is read before the enqueue so the flight event records the
	// depth this job saw at admission (reading after would race the pool).
	s.flight.Note("admit", "job", job.ID, "queue_depth", strconv.Itoa(s.pool.Depth()))
	if s.persist != nil {
		// Request file before submit record before enqueue: a job is only
		// ever journaled once its request body can outlive the process, and
		// only ever enqueued once its journal record is committed.
		job.seq = seq
		perr := s.persist.saveRequest(job.ID, req)
		if perr == nil {
			perr = s.persist.recordSubmit(jobState{
				ID: job.ID, Seq: seq, Key: key, Composite: job.composite,
			})
		}
		if perr != nil {
			s.jobLog(job).Error("job persistence failed", "error", perr)
			// The attrs stay path-free (the error text may embed the data
			// dir), so dumps replay byte-identically under a chaos seed.
			s.flight.Note("journal.error", "job", job.ID, "record", "submit")
			s.completeJob(job, StatusFailed, nil, "persistence failure: "+perr.Error(), 0, false)
			s.flight.Dump("persist-failure", "job", job.ID)
			return nil, fmt.Errorf("server: persist job: %w", perr)
		}
		s.flight.Note("journal.write", "job", job.ID, "record", "submit")
	}
	if err := s.pool.Enqueue(job); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.metrics.inc(jobsShed)
			s.flight.Note("shed", "job", job.ID, "reason", "queue-full")
			s.completeJob(job, StatusCancelled, nil, "job queue is full", 0, false)
			s.flight.Dump("shed", "job", job.ID, "reason", "queue-full")
			return nil, ErrQueueFull
		}
		s.completeJob(job, StatusCancelled, nil, "server shutting down", 0, false)
		return nil, ErrShuttingDown
	}
	return job, nil
}

// registerLocked adds the job to the registry, evicting the oldest terminal
// jobs beyond the retention bound. Caller holds s.mu.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	for len(s.jobs) > s.cfg.MaxJobs && len(s.jobOrder) > 0 {
		oldest := s.jobOrder[0]
		old, ok := s.jobs[oldest]
		if ok {
			switch old.Status() {
			case StatusDone, StatusFailed, StatusCancelled:
				delete(s.jobs, oldest)
			default:
				return // oldest still active: retain everything for now
			}
		}
		s.jobOrder = s.jobOrder[1:]
	}
}

// jobLog returns the server logger scoped to one job: every record carries
// the job_id and, when the job is traced, the trace_id.
func (s *Server) jobLog(j *Job) *slog.Logger {
	l := s.cfg.Log.With("job_id", j.ID)
	if j.trace != nil {
		l = l.With("trace_id", j.trace.ID())
	}
	return l
}

// runJob is the pool callback: compute one pair and complete the job. The
// computation runs under the job's cancellable context plus its wall-clock
// deadline (armed here, so queue time does not count), and a panic anywhere
// in it — including inside engine worker goroutines, which hand their panics
// back to this goroutine — fails only this job while the daemon keeps
// serving.
func (s *Server) runJob(j *Job) {
	if !j.setRunning() {
		return
	}
	s.mu.Lock()
	pair := j.pair
	s.mu.Unlock()
	if pair.Log1 == nil {
		return // cancelled between pickup and here; its logs are released
	}
	j.attempt++
	if s.persist != nil && j.seq != 0 {
		if err := s.persist.recordStart(j.ID, j.attempt); err != nil {
			s.jobLog(j).Warn("journaling job start failed", "phase", "start", "error", err)
			s.flight.Note("journal.error", "job", j.ID, "record", "start")
		} else {
			s.flight.Note("journal.write", "job", j.ID, "record", "start")
		}
	}
	ctx := j.ctx
	if ctx == nil {
		ctx = s.ctx
	}
	var computeSpan *obs.Span
	if j.trace != nil {
		// Carry the trace into the engine: the ems facade arms its span hook
		// from the context, so graph-build/iterate/select phases land on the
		// job's timeline — nested under this job's compute span via the root.
		ctx = obs.ContextWithTrace(ctx, j.trace)
		computeSpan = j.trace.StartSpan("compute")
		computeSpan.SetAttr("job", j.ID)
	}
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if computeSpan != nil {
				computeSpan.SetAttr("panic", "true")
				computeSpan.End()
			}
			s.metrics.inc(jobsPanicked)
			val, stack := r, debug.Stack()
			if ep, ok := r.(*core.EnginePanic); ok {
				val, stack = ep.Val, ep.Stack
			}
			s.jobLog(j).Error("job panicked (contained)", "phase", "compute",
				"panic", fmt.Sprint(val), "stack", string(stack))
			s.flight.Note("panic", "job", j.ID, "attempt", strconv.Itoa(j.attempt))
			s.flight.Dump("panic", "job", j.ID)
			// A panic is not a property of the input (those fail with an
			// error), so it is worth a bounded retry when configured — from
			// the last persisted checkpoint, not from scratch.
			if s.persist != nil && j.seq != 0 && j.attempt <= s.cfg.JobRetries {
				j.resume = s.persist.loadCheckpoint(j.ID)
				s.metrics.inc(jobsRetried)
				s.requeueWithBackoff(j)
				return
			}
			s.completeJob(j, StatusFailed, nil,
				fmt.Sprintf("internal error: computation panicked: %v", val), time.Since(start), false)
		}
	}()
	opts := append(append(make([]ems.Option, 0, len(j.opts)+4), j.opts...), ems.WithContext(ctx))
	if j.prog != nil {
		opts = append(opts, ems.WithProgress(j.prog.observe))
	}
	if s.persist != nil && j.seq != 0 && !j.composite {
		id := j.ID
		log := s.jobLog(j)
		opts = append(opts, ems.WithCheckpoints(s.cfg.CheckpointEvery, func(cp *ems.EngineCheckpoint) {
			if err := s.persist.saveCheckpoint(id, cp); err != nil {
				log.Warn("writing checkpoint failed", "phase", "checkpoint", "error", err)
				return
			}
			s.metrics.inc(checkpoints)
		}))
		if j.resume != nil {
			opts = append(opts, ems.WithResume(j.resume))
		}
	}
	var res *ems.Result
	var err error
	if j.composite {
		res, err = ems.MatchComposite(pair.Log1, pair.Log2, opts...)
	} else {
		res, err = ems.Match(pair.Log1, pair.Log2, opts...)
	}
	wall := time.Since(start)
	if computeSpan != nil {
		if j.prog != nil {
			j.prog.stampSpan(computeSpan)
		}
		if j.degraded != "" {
			computeSpan.SetAttr("degraded", j.degraded)
		}
		computeSpan.End()
	}
	if thr := s.cfg.SlowJobThreshold; thr > 0 && wall >= thr && j.trace != nil {
		s.jobLog(j).Warn("slow job", "phase", "compute",
			"wall_ms", float64(wall.Microseconds())/1000,
			"threshold_ms", float64(thr.Microseconds())/1000,
			"timeline", "\n"+j.trace.Timeline())
		// The dump's attrs carry no wall-clock measurements so chaos-seeded
		// replays stay byte-identical.
		s.flight.Note("slow-job", "job", j.ID)
		s.flight.Dump("slow-job", "job", j.ID)
	}
	switch {
	case err == nil:
		if j.degraded != "" && res != nil {
			// Stamp the ladder rung before the result is cached, so followers
			// and later cache hits see how it was computed too.
			res.Degraded = j.degraded
		}
		s.completeJob(j, StatusDone, res, "", wall, true)
	case errors.Is(err, ems.ErrStopped) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errCancelledByClient):
			s.completeJob(j, StatusCancelled, nil, "cancelled by client", wall, false)
		case errors.Is(cause, context.DeadlineExceeded):
			s.metrics.inc(jobsTimedOut)
			s.flight.Note("deadline", "job", j.ID)
			s.completeJob(j, StatusFailed, nil,
				fmt.Sprintf("deadline exceeded: job ran longer than its %v budget", j.timeout), wall, false)
			s.flight.Dump("deadline", "job", j.ID)
		default:
			s.completeJob(j, StatusCancelled, nil, "server shutting down", wall, false)
		}
	default:
		s.completeJob(j, StatusFailed, nil, err.Error(), wall, false)
	}
}

// completeJob finishes a leader job and every follower coalesced onto it,
// publishing a successful result to the cache.
func (s *Server) completeJob(j *Job, status Status, res *ems.Result, errMsg string, wall time.Duration, computed bool) {
	if status == StatusDone && res != nil {
		s.cache.Put(j.key, res)
	}
	if computed && status == StatusDone && res != nil && (res.Repair1 != nil || res.Repair2 != nil) {
		var dropped, reordered, imputed, quarantined uint64
		for _, r := range []*ems.RepairReport{res.Repair1, res.Repair2} {
			if r == nil {
				continue
			}
			dropped += uint64(r.EventsDropped)
			reordered += uint64(r.EventsReordered)
			imputed += uint64(r.EventsImputed)
			quarantined += uint64(r.TracesQuarantined)
		}
		s.metrics.JobRepaired(dropped, reordered, imputed, quarantined)
	}
	if s.persist != nil && j.seq != 0 {
		// Result file before the done record, so a committed "done" always
		// finds its result on the next boot.
		if status == StatusDone && res != nil && computed {
			if err := s.persist.saveResult(j.key, res); err != nil {
				s.jobLog(j).Warn("persisting result failed", "phase", "complete", "error", err)
			}
		}
		if err := s.persist.recordDone(j.ID, status, errMsg); err != nil {
			s.jobLog(j).Warn("journaling completion failed", "phase", "complete", "error", err)
			s.flight.Note("journal.error", "job", j.ID, "record", "done")
		} else {
			s.flight.Note("journal.write", "job", j.ID, "record", "done")
		}
	}
	s.mu.Lock()
	if j.key != "" && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil
	// A finished job keeps its view and result, not its parsed input: the
	// registry retains up to MaxJobs finished jobs.
	j.pair = ems.PairInput{}
	// The governor reservation is cleared under s.mu so a racing second
	// completion (client cancel vs. worker finish) releases exactly once.
	cost := j.cost
	j.cost = 0
	s.mu.Unlock()
	if s.gov != nil && cost > 0 {
		s.gov.release(cost)
		s.noteGovernor()
	}

	j.finish(status, res, errMsg, wall, false)
	s.metrics.JobDone(status, wall, computed)
	if computed {
		s.obs.jobDur.Observe(wall.Seconds())
	}
	// Publish the job's spans — the request-time snapshot the middleware
	// stored lacks the compute-phase spans that only exist now. Failed, shed
	// and degraded jobs publish too; their traces are the interesting ones.
	s.recordTrace(j.trace)
	for _, f := range followers {
		// Followers coalesced at recovery are journaled jobs of their own and
		// need their terminal record too (seq != 0 only for those).
		if s.persist != nil && f.seq != 0 {
			if err := s.persist.recordDone(f.ID, status, errMsg); err != nil {
				s.jobLog(f).Warn("journaling completion failed", "phase", "complete", "error", err)
			}
		}
		f.finish(status, res, errMsg, 0, true)
		s.metrics.JobDone(status, 0, false)
	}
	if j.cancel != nil {
		// Terminal either way: release the job context's resources. runJob
		// has already read the cancellation cause it cares about.
		j.cancel(nil)
	}
}

// requeueWithBackoff puts a failed job back in the queue after an
// exponential delay. The queue-depth bound is bypassed: the job was already
// admitted once. If the job is cancelled while waiting, the later enqueue is
// harmless — workers skip terminal jobs.
func (s *Server) requeueWithBackoff(j *Job) {
	if !j.setQueued() {
		return
	}
	delay := s.cfg.RetryBackoff << uint(j.attempt-1)
	time.AfterFunc(delay, func() {
		if err := s.pool.EnqueueForce(j); err != nil {
			s.completeJob(j, StatusCancelled, nil, "server shutting down", 0, false)
		}
	})
}

// Cancel aborts a job by ID: a queued job is finished as cancelled without
// running, a running job's computation is interrupted in-engine (within one
// iteration round) and finishes as cancelled shortly after. Cancelling a
// terminal job is a no-op. Cancelling a coalesced (follower) job detaches
// only that job; the leader computation keeps running for the others.
// ok is false when the ID is unknown.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if j.cancel != nil {
		// Cancel the context before the status check: if a worker picks the
		// job up concurrently, its computation starts already-cancelled and
		// aborts on the first round.
		j.cancel(errCancelledByClient)
	}
	if j.Status() == StatusQueued {
		// Not picked up yet (fresh job still queued, or a follower): finish
		// it now so pollers see the cancellation immediately; the worker
		// skips it later because setRunning fails on terminal jobs.
		s.completeJob(j, StatusCancelled, nil, "cancelled by client", 0, false)
	}
	return j, true
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobViews lists up to limit jobs, newest first, optionally filtered by
// status ("" matches every state). limit <= 0 uses the default (100).
func (s *Server) JobViews(status Status, limit int) []JobView {
	if limit <= 0 {
		limit = 100
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, limit)
	for i := len(s.jobOrder) - 1; i >= 0 && len(jobs) < limit; i-- {
		j, ok := s.jobs[s.jobOrder[i]]
		if !ok {
			continue // evicted from the registry, order entry not yet pruned
		}
		if status != "" && j.Status() != status {
			continue
		}
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// Stats snapshots the metrics with live gauges filled in.
func (s *Server) Stats() Stats {
	st := s.metrics.Snapshot()
	st.QueueDepth = s.pool.Depth()
	st.Running = s.pool.Running()
	st.CacheSize = s.cache.Len()
	if s.persist != nil {
		st.JournalBytes = s.persist.journalBytes()
	}
	if s.gov != nil {
		st.MemBudgetBytes = s.gov.budget
		st.MemCommittedBytes = s.gov.committed.Load()
	}
	st.Governor = string(s.governorState())
	st.Load = s.governorLoad()
	return st
}

// retryAfterSeconds derives a Retry-After hint from the queue's drain rate:
// the current depth times the average job wall time, spread across the
// workers, clamped to [1s, 30s]. With no completed timed jobs yet the floor
// applies.
func (s *Server) retryAfterSeconds() int {
	depth := s.pool.Depth()
	avgMS := s.metrics.Snapshot().AvgWallMillis
	secs := 1
	if depth > 0 && avgMS > 0 {
		drain := float64(depth) * avgMS / float64(s.cfg.Workers) / 1000
		secs = int(drain + 0.999)
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Shutdown stops intake, cancels queued jobs, and drains running jobs in
// two bounded phases: first it waits up to ctx's deadline for them to finish
// on their own, then it cancels the base context — which aborts the
// remaining computations in-engine within one iteration round — and waits
// for the workers to observe that. It returns ctx's error when the grace
// period expired (some jobs were interrupted rather than drained), nil when
// everything finished in time. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	dropped := s.pool.Close()
	for _, j := range dropped {
		s.completeJob(j, StatusCancelled, nil, "server shutting down", 0, false)
	}
	err := s.pool.Wait(ctx)
	if !already {
		// Release the base context only after the drain, so running jobs
		// were given the chance to finish.
		s.cancel()
	}
	if err != nil {
		// Grace expired: the base-context cancellation above interrupts the
		// stragglers inside the iteration engine, so this final wait returns
		// within about one round rather than one job.
		_ = s.pool.Wait(context.Background())
	}
	// Batch coordinators run under the base context too: cancelled above,
	// they abandon their remaining pairs (cancelling remote jobs best-effort)
	// and finish promptly.
	s.batchWG.Wait()
	if !already && s.persist != nil {
		// Workers are done; no more journal writes are coming.
		if cerr := s.persist.Close(); cerr != nil {
			s.cfg.Log.Warn("closing journal failed", "error", cerr)
		}
	}
	return err
}

// recoverJobs replays the journaled job states into the fresh server:
// terminal jobs get their status (and, for done jobs, their persisted
// result) back; queued and running jobs are rebuilt from their persisted
// request bodies and re-enqueued, running ones resuming from their last
// checkpoint. Called from New before the server is shared, but after the
// pool has started — re-enqueued jobs begin computing immediately.
func (s *Server) recoverJobs() {
	p := s.persist
	states := p.states()
	s.mu.Lock()
	if n := p.nextSeq(); n > s.nextID {
		// Never reuse a journaled job ID.
		s.nextID = n
	}
	s.mu.Unlock()
	for _, st := range states {
		switch st.Status {
		case StatusDone:
			j := newJob(st.ID)
			j.seq = st.Seq
			s.mu.Lock()
			s.registerLocked(j)
			s.mu.Unlock()
			if res, ok := p.loadResult(st.Key); ok {
				s.cache.Put(st.Key, res)
				j.finish(StatusDone, res, "", 0, true)
			} else {
				j.finish(StatusFailed, nil, "result no longer available after restart", 0, false)
			}
		case StatusFailed, StatusCancelled:
			j := newJob(st.ID)
			j.seq = st.Seq
			s.mu.Lock()
			s.registerLocked(j)
			s.mu.Unlock()
			j.finish(st.Status, nil, st.Error, 0, false)
		default: // queued or running: the job never finished
			s.recoverActiveJob(st)
		}
	}
}

// recoverActiveJob rebuilds one unfinished job from its persisted request
// and puts it back in the queue.
func (s *Server) recoverActiveJob(st jobState) {
	p := s.persist
	j := newJob(st.ID)
	j.seq, j.attempt, j.key, j.composite = st.Seq, st.Attempt, st.Key, st.Composite
	// The original trace died with the previous process; a recovered job gets
	// a fresh one so its re-run is observable too.
	j.trace = s.newTrace("")
	j.trace.Keep()
	if !j.composite {
		j.prog = &progress{}
	}
	s.mu.Lock()
	s.registerLocked(j)
	s.mu.Unlock()
	if st.Status == StatusRunning && st.Attempt >= maxCrashAttempts {
		// This job was mid-run at several consecutive crashes: presume it is
		// the crash trigger and stop retrying it rather than crash-loop.
		s.completeJob(j, StatusFailed, nil,
			fmt.Sprintf("abandoned after %d attempts that ended in a crash", st.Attempt), 0, false)
		return
	}
	req, err := p.loadRequest(st.ID)
	if err != nil {
		s.completeJob(j, StatusFailed, nil, "request no longer available after restart", 0, false)
		return
	}
	pj, err := s.prepare(req)
	if err != nil {
		// E.g. AllowPaths was turned off between runs.
		s.completeJob(j, StatusFailed, nil, err.Error(), 0, false)
		return
	}
	if res, ok := s.cache.Get(pj.key); ok {
		// An identical job finished before the crash; serve its result.
		s.metrics.inc(jobsRecovered)
		s.completeJob(j, StatusDone, res, "", 0, false)
		return
	}
	s.mu.Lock()
	if leader, ok := s.inflight[pj.key]; ok {
		// Identical unfinished job already re-enqueued: coalesce onto it.
		leader.followers = append(leader.followers, j)
		s.mu.Unlock()
		s.metrics.inc(jobsRecovered)
		return
	}
	j.key = pj.key
	j.pair = ems.PairInput{Name: j.ID, Log1: pj.l1, Log2: pj.l2}
	j.opts = pj.opts
	j.timeout = pj.timeout
	j.ctx, j.cancel = context.WithCancelCause(s.ctx)
	if s.gov != nil && pj.cost != nil {
		// Recovered jobs were admitted before the restart; their reservation
		// is re-taken without an admission check (may transiently overshoot).
		s.gov.forceCommit(pj.cost.Bytes)
		j.cost = pj.cost.Bytes
	}
	s.inflight[pj.key] = j
	s.mu.Unlock()
	if st.Status == StatusRunning && !j.composite {
		if j.resume = p.loadCheckpoint(st.ID); j.resume != nil {
			s.metrics.inc(jobsResumed)
		}
	}
	s.metrics.inc(jobsRecovered)
	if err := s.pool.EnqueueForce(j); err != nil {
		s.completeJob(j, StatusCancelled, nil, "server shutting down", 0, false)
	}
}
