package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/ems"
	"repro/internal/cluster"
	"repro/internal/jobkey"
	"repro/internal/obs"
)

// BatchPairInput names one explicit pair of a batch.
type BatchPairInput struct {
	// Name labels the pair in results; defaults to "<log1>|<log2>".
	Name string   `json:"name,omitempty"`
	Log1 LogInput `json:"log1"`
	Log2 LogInput `json:"log2"`
}

// BatchRequest is the body of POST /v1/batch: either an N×M grid (every
// log of logs1 matched against every log of logs2 — the paper's
// subsidiary-alignment workload) or an explicit pair list, one shared
// option set, and an optional consensus quorum.
type BatchRequest struct {
	Logs1 []LogInput       `json:"logs1,omitempty"`
	Logs2 []LogInput       `json:"logs2,omitempty"`
	Pairs []BatchPairInput `json:"pairs,omitempty"`
	// Options apply to every pair and feed each pair's content key, so a
	// batch pair dedups against identical single submissions cluster-wide.
	Options JobOptions `json:"options"`
	// Quorum is the consensus threshold: a correspondence must be selected
	// by at least this many pair mappings to enter the batch's consensus
	// summary. 0 means a majority of the successful pairs.
	Quorum int `json:"quorum,omitempty"`
}

// BatchPairView is one pair's terminal state in the batch view.
type BatchPairView struct {
	Name string `json:"name"`
	// JobID is the pair's job handle — qualified with the executing node
	// when it ran remotely — pollable via GET /v1/jobs/{id} on this node.
	JobID    string `json:"job_id,omitempty"`
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Status   Status `json:"status"`
	Error    string `json:"error,omitempty"`
	// Result is the pair's full match result (ems.Result JSON), present
	// once the pair is done. It is byte-identical to what a single-node
	// ems.MatchAll would produce for this pair.
	Result json.RawMessage `json:"result,omitempty"`
}

// consensusEntry mirrors the per-correspondence JSON of a match result.
type consensusEntry struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
	Score float64  `json:"score"`
}

// BatchView is the body of GET /v1/batch/{id}.
type BatchView struct {
	ID        string         `json:"id"`
	Status    Status         `json:"status"`
	TraceID   string         `json:"trace_id,omitempty"`
	Pairs     int            `json:"pairs"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Failovers int            `json:"failovers"`
	PerNode   map[string]int `json:"per_node,omitempty"`
	Quorum    int            `json:"quorum,omitempty"`
	// Consensus is the cluster-wide summary: correspondences supported by
	// at least Quorum pair mappings, scores averaged. Present once done.
	Consensus      []consensusEntry `json:"consensus,omitempty"`
	ConsensusError string           `json:"consensus_error,omitempty"`
	Error          string           `json:"error,omitempty"`
	WallMS         float64          `json:"wall_ms"`
	PairResults    []BatchPairView  `json:"pair_results,omitempty"`
}

// BatchProgressView is the batch slice of GET /v1/jobs/{id}/progress.
type BatchProgressView struct {
	Pairs     int            `json:"pairs"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Failovers int            `json:"failovers"`
	PerNode   map[string]int `json:"per_node,omitempty"`
}

// batchPairState is the coordinator-facing state of one pair.
type batchPairState struct {
	name     string
	jobID    string
	node     string
	attempts int
	status   Status
	err      string
	resJSON  []byte // rendered once at completion; the bytes the view serves
}

// batchRun is the live state of one batch job, written by the coordinator
// callbacks and read by HTTP pollers.
type batchRun struct {
	mu        sync.Mutex
	pairs     []batchPairState
	done      int
	failed    int
	failovers int
	perNode   map[string]int
	quorum    int // 0 until finalize (request asked for majority)
	reqQuorum int
	consensus []consensusEntry
	consErr   string
}

func (b *batchRun) noteJob(i int, jobID string) {
	b.mu.Lock()
	b.pairs[i].jobID = jobID
	b.mu.Unlock()
}

func (b *batchRun) noteFailover() {
	b.mu.Lock()
	b.failovers++
	b.mu.Unlock()
}

// completePair folds one terminal pair outcome in; the result is rendered
// to its wire JSON exactly once, here.
func (b *batchRun) completePair(i int, pr cluster.PairResult) error {
	var rendered []byte
	if pr.Err == nil && pr.Result != nil {
		var buf bytes.Buffer
		if err := pr.Result.WriteJSON(&buf); err != nil {
			pr.Err = fmt.Errorf("render pair result: %w", err)
		} else {
			rendered = buf.Bytes()
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := &b.pairs[i]
	p.node, p.attempts = pr.Node, pr.Attempts
	if pr.Err != nil {
		p.status, p.err = StatusFailed, pr.Err.Error()
		b.failed++
		return pr.Err
	}
	p.status, p.resJSON = StatusDone, rendered
	b.done++
	if pr.Node != "" {
		b.perNode[pr.Node]++
	}
	return nil
}

// finalize computes the consensus summary over the successful pairs.
func (b *batchRun) finalize(results []cluster.PairResult) {
	var mappings []ems.Mapping
	for _, pr := range results {
		if pr.Err == nil && pr.Result != nil {
			mappings = append(mappings, pr.Result.Mapping)
		}
	}
	quorum := b.reqQuorum
	if quorum <= 0 {
		quorum = len(mappings)/2 + 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.quorum = quorum
	if len(mappings) == 0 {
		b.consErr = "no successful pairs to build a consensus from"
		return
	}
	m, err := ems.Consensus(mappings, quorum)
	if err != nil {
		b.consErr = err.Error()
		return
	}
	b.consensus = make([]consensusEntry, 0, len(m))
	for _, c := range m {
		b.consensus = append(b.consensus, consensusEntry{Left: c.Left, Right: c.Right, Score: c.Score})
	}
}

// progress snapshots the counters for the progress endpoint.
func (b *batchRun) progress() *BatchProgressView {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := &BatchProgressView{
		Pairs: len(b.pairs), Done: b.done, Failed: b.failed, Failovers: b.failovers,
		PerNode: make(map[string]int, len(b.perNode)),
	}
	for k, n := range b.perNode {
		v.PerNode[k] = n
	}
	return v
}

// fill copies the batch state into a view. Caller owns the view.
func (b *batchRun) fill(v *BatchView) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v.Pairs = len(b.pairs)
	v.Done, v.Failed, v.Failovers, v.Quorum = b.done, b.failed, b.failovers, b.quorum
	v.PerNode = make(map[string]int, len(b.perNode))
	for k, n := range b.perNode {
		v.PerNode[k] = n
	}
	v.Consensus = append([]consensusEntry(nil), b.consensus...)
	v.ConsensusError = b.consErr
	v.PairResults = make([]BatchPairView, len(b.pairs))
	for i, p := range b.pairs {
		v.PairResults[i] = BatchPairView{
			Name: p.name, JobID: p.jobID, Node: p.node, Attempts: p.attempts,
			Status: p.status, Error: p.err, Result: json.RawMessage(p.resJSON),
		}
	}
}

// preparedBatch is a validated batch: per-pair requests (logs normalized to
// inline traces so they survive forwarding to peers), serialized bodies for
// the wire, and ring keys.
type preparedBatch struct {
	pairs  []cluster.Pair // name + content key, coordinator placement unit
	reqs   []JobRequest   // per-pair local submission
	bodies [][]byte       // per-pair wire form for remote submission
	run    *batchRun
}

// inlineLog normalizes a resolved log to the inline-traces wire form, so a
// pair can be shipped to a peer that does not share this node's filesystem.
func inlineLog(name string, l *ems.Log) LogInput {
	traces := make([][]string, len(l.Traces))
	for i, t := range l.Traces {
		traces[i] = append([]string(nil), t...)
	}
	return LogInput{Name: name, Traces: traces}
}

// defaultBatchPairs bounds the pairs of one batch when Config.MaxBatchPairs
// is unset: a 64×64 grid, plenty for the paper's 31-subsidiary workload.
const defaultBatchPairs = 4096

// prepareBatch validates a batch request and resolves every pair. Errors
// are the client's fault.
func (s *Server) prepareBatch(req BatchRequest) (*preparedBatch, error) {
	grid := len(req.Logs1) > 0 || len(req.Logs2) > 0
	if grid && len(req.Pairs) > 0 {
		return nil, fmt.Errorf("batch: pairs and logs1/logs2 are mutually exclusive")
	}
	if !grid && len(req.Pairs) == 0 {
		return nil, fmt.Errorf("batch: need logs1+logs2 (grid) or pairs")
	}
	if req.Quorum < 0 {
		return nil, fmt.Errorf("batch: quorum must be >= 0, got %d", req.Quorum)
	}
	maxPairs := s.cfg.MaxBatchPairs
	if maxPairs <= 0 {
		maxPairs = defaultBatchPairs
	}
	if (req.Log1Paths() || req.Log2Paths()) && !s.cfg.AllowPaths {
		return nil, fmt.Errorf("log paths are disabled on this server (start emsd with -allow-paths)")
	}
	// Validate the shared options once so a bad option set fails the whole
	// batch up front with a 400; the canonical option key feeds every
	// pair's ring key.
	_, optKey, err := req.Options.build()
	if err != nil {
		return nil, err
	}

	type resolved struct {
		in  LogInput
		log *ems.Log
	}
	resolve := func(in LogInput, fallback string) (resolved, error) {
		l, skipped, err := in.resolve(fallback)
		if err != nil {
			return resolved{}, err
		}
		if skipped > 0 {
			s.metrics.add(ingestSkipped, uint64(skipped))
		}
		return resolved{in: inlineLog(l.Name, l), log: l}, nil
	}

	pb := &preparedBatch{run: &batchRun{perNode: map[string]int{}, reqQuorum: req.Quorum}}
	addPair := func(name string, l1, l2 resolved) {
		pb.pairs = append(pb.pairs, cluster.Pair{Name: name, Key: jobkey.Compute(l1.log, l2.log, optKey)})
		pb.reqs = append(pb.reqs, JobRequest{Log1: l1.in, Log2: l2.in, Options: req.Options})
		pb.run.pairs = append(pb.run.pairs, batchPairState{name: name, status: StatusQueued})
	}

	if grid {
		if len(req.Logs1) == 0 || len(req.Logs2) == 0 {
			return nil, fmt.Errorf("batch: a grid needs both logs1 and logs2")
		}
		if n := len(req.Logs1) * len(req.Logs2); n > maxPairs {
			return nil, fmt.Errorf("batch: %d×%d grid is %d pairs, server bound is %d",
				len(req.Logs1), len(req.Logs2), n, maxPairs)
		}
		side1 := make([]resolved, len(req.Logs1))
		for i, in := range req.Logs1 {
			if side1[i], err = resolve(in, fmt.Sprintf("logs1[%d]", i)); err != nil {
				return nil, err
			}
		}
		side2 := make([]resolved, len(req.Logs2))
		for j, in := range req.Logs2 {
			if side2[j], err = resolve(in, fmt.Sprintf("logs2[%d]", j)); err != nil {
				return nil, err
			}
		}
		for _, l1 := range side1 {
			for _, l2 := range side2 {
				addPair(l1.in.Name+"|"+l2.in.Name, l1, l2)
			}
		}
	} else {
		if len(req.Pairs) > maxPairs {
			return nil, fmt.Errorf("batch: %d pairs, server bound is %d", len(req.Pairs), maxPairs)
		}
		for i, p := range req.Pairs {
			l1, err := resolve(p.Log1, fmt.Sprintf("pairs[%d].log1", i))
			if err != nil {
				return nil, err
			}
			l2, err := resolve(p.Log2, fmt.Sprintf("pairs[%d].log2", i))
			if err != nil {
				return nil, err
			}
			name := p.Name
			if name == "" {
				name = l1.in.Name + "|" + l2.in.Name
			}
			addPair(name, l1, l2)
		}
	}
	pb.bodies = make([][]byte, len(pb.reqs))
	for i, r := range pb.reqs {
		if pb.bodies[i], err = json.Marshal(r); err != nil {
			return nil, fmt.Errorf("batch: marshal pair %q: %w", pb.pairs[i].Name, err)
		}
	}
	return pb, nil
}

// Log1Paths / Log2Paths report whether any input log reads a server-local
// path (gated by Config.AllowPaths like single submissions).
func (r BatchRequest) Log1Paths() bool {
	for _, l := range r.Logs1 {
		if l.Path != "" {
			return true
		}
	}
	for _, p := range r.Pairs {
		if p.Log1.Path != "" {
			return true
		}
	}
	return false
}

func (r BatchRequest) Log2Paths() bool {
	for _, l := range r.Logs2 {
		if l.Path != "" {
			return true
		}
	}
	for _, p := range r.Pairs {
		if p.Log2.Path != "" {
			return true
		}
	}
	return false
}

// SubmitBatch validates a batch request, registers its job handle, and
// starts the coordinator in the background. The returned job is pollable
// via GET /v1/jobs/{id} (and /progress); the full grid lives at
// GET /v1/batch/{id}. Batches are coordinator-resident: they are not
// journaled (each executed pair is a normal job on its executing node and
// journals there), so a restart of this node loses the batch handle but no
// pair work.
func (s *Server) SubmitBatch(ctx context.Context, req BatchRequest) (*Job, error) {
	pb, err := s.prepareBatch(req)
	if err != nil {
		s.metrics.inc(jobsRejected)
		return nil, &requestError{err}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.inc(jobsRejected)
		return nil, ErrShuttingDown
	}
	s.nextID++
	job := newJob(fmt.Sprintf("batch-%06d", s.nextID))
	job.batch = pb.run
	job.trace = s.traceOrNew(ctx)
	job.trace.Keep()
	job.ctx, job.cancel = context.WithCancelCause(s.ctx)
	s.registerLocked(job)
	s.mu.Unlock()
	s.obs.batchJobs.Inc()
	s.batchWG.Add(1)
	go s.runBatch(job, pb)
	return job, nil
}

// runBatch drives one batch to completion: fan the pairs out over the
// ring, gather, build the consensus, finish the job.
func (s *Server) runBatch(job *Job, pb *preparedBatch) {
	defer s.batchWG.Done()
	if !job.setRunning() {
		return // cancelled before we started
	}
	start := time.Now()
	run := pb.run
	coord := &cluster.Coordinator{
		Ring:         s.cluster.ring,
		Health:       s.cluster.health,
		NodeInflight: s.cluster.cfg.BatchNodeInflight,
		OnFailover: func(node cluster.Node, pair cluster.Pair, err error) {
			run.noteFailover()
			s.obs.peerFailover(node.ID)
		},
		OnDone: func(i int, pr cluster.PairResult) {
			if err := run.completePair(i, pr); err != nil {
				s.obs.batchPairs.With("failed").Inc()
				s.jobLog(job).Warn("batch pair failed", "phase", "batch",
					"pair", pr.Name, "attempts", pr.Attempts, "error", err)
			} else {
				s.obs.batchPairs.With("done").Inc()
			}
		},
	}
	// The runner closes over the per-pair requests; pairs are identified to
	// the coordinator only by (name, key).
	index := make(map[string]int, len(pb.pairs))
	for i, p := range pb.pairs {
		index[p.Name] = i
	}
	coord.Run = func(ctx context.Context, node cluster.Node, pair cluster.Pair) (*ems.Result, error) {
		i := index[pair.Name]
		if node.ID != s.cluster.self.ID {
			s.obs.peerForward(node.ID)
		}
		return s.runPairOn(ctx, node, pb.reqs[i], pb.bodies[i], func(jobID string) { run.noteJob(i, jobID) })
	}
	// The batch trace rides the coordinator context: locally-placed pairs
	// join it directly, remote pairs via the propagation header on every
	// peer exchange.
	results := coord.Execute(obs.ContextWithTrace(job.ctx, job.trace), pb.pairs)
	run.finalize(results)
	wall := time.Since(start)
	failed := 0
	for _, pr := range results {
		if pr.Err != nil {
			failed++
		}
	}
	switch {
	case job.ctx.Err() != nil:
		job.finish(StatusCancelled, nil, "batch abandoned: "+context.Cause(job.ctx).Error(), wall, false)
	case failed == len(results):
		job.finish(StatusFailed, nil, "every pair failed", wall, false)
	default:
		job.finish(StatusDone, nil, "", wall, false)
	}
	if job.cancel != nil {
		job.cancel(nil)
	}
	s.recordTrace(job.trace)
	s.jobLog(job).Info("batch finished", "phase", "batch",
		"pairs", len(results), "failed", failed, "failovers", run.progress().Failovers,
		"wall_ms", float64(wall.Microseconds())/1000)
}

// Batch looks up a batch by job ID and snapshots its view; ok is false for
// unknown IDs and for plain (non-batch) jobs.
func (s *Server) Batch(id string) (BatchView, bool) {
	j, ok := s.Job(id)
	if !ok || j.batch == nil {
		return BatchView{}, false
	}
	jv := j.View()
	v := BatchView{ID: j.ID, Status: jv.Status, TraceID: jv.TraceID, Error: jv.Error, WallMS: jv.WallMS}
	j.batch.fill(&v)
	return v, true
}
