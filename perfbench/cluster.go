package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/ems"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/server"
)

// svc-cluster: two emsd nodes in this process, each on its own loopback
// listener and data directory. Two closed-loop clients submit to node A;
// the ring forwards about half the keys to node B. Fresh jobs (writes) are
// 40-activity noisy logs sent with lenient reading and repair, every other
// one with labels; each client repeats one of its finished jobs after
// every two fresh ones (reads, served from the result cache). The request
// path, journal, cluster hops, repair and result retention carry much of
// the cost here and none in the library workloads.
var clusterOpts = dataset.Options{
	Events: 40, Traces: 60, OpaqueFraction: 0.5, FrequencySkew: 0.5, ExtraFront: 1, ExtraBack: 1,
}

const (
	clusterClients = 2
	// clusterFreshPerRound fresh jobs per round, each client taking every
	// other one; every second fresh job of a client is followed by a
	// repeat of its previous one.
	clusterFreshPerRound    = 15
	clusterRounds           = 20
	clusterHistoryJobs      = 40 // finished jobs in the journals the nodes boot on
	clusterWarmJobs         = 6  // warm-up jobs submitted during set-up
	clusterNoise            = 0.02
	clusterHistoryModelBase = 10_000
	clusterWarmModelBase    = 20_000
)

// svcJob is one distinct job of the workload.
type svcJob struct {
	body   []byte // POST /v1/jobs request
	req    server.JobRequest
	labels bool
	truth  ems.Mapping
}

// makeSvcJob generates fresh job k from model seed model: a pair with
// noise added to both logs, serialized to CSV with one malformed row each
// (which lenient reading skips), submitted with repair.
func makeSvcJob(cfg runConfig, model int64, k int) (*svcJob, error) {
	opts := clusterOpts
	if cfg.toy {
		opts.Events, opts.Traces = 12, 30
	}
	p, rng, err := makePair(model, cfg.seed, k, opts)
	if err != nil {
		return nil, err
	}
	var csv [2]string
	for i, l := range []*ems.Log{p.Log1, p.Log2} {
		noisy, err := ems.AddNoise(rng, l, clusterNoise, clusterNoise, clusterNoise)
		if err != nil {
			return nil, err
		}
		b, err := toCSV(noisy)
		if err != nil {
			return nil, err
		}
		lines := strings.SplitAfter(string(b), "\n")
		mid := len(lines) / 2
		csv[i] = strings.Join(lines[:mid], "") + "broken,row,with three fields\n" + strings.Join(lines[mid:], "")
	}
	j := &svcJob{labels: k%2 == 1, truth: p.Truth}
	j.req = server.JobRequest{
		Log1:    server.LogInput{CSV: csv[0], Lenient: true},
		Log2:    server.LogInput{CSV: csv[1], Lenient: true},
		Options: server.JobOptions{Labels: j.labels, Repair: &server.RepairJobOptions{}},
	}
	j.body, err = json.Marshal(j.req)
	return j, err
}

// libraryOptions are the ems options emsd derives from the job's options
// (see server.JobOptions): threshold 0.1, delta 0.005, alpha 0.7 with
// labels and 1 without, the default repair pipeline.
func (j *svcJob) libraryOptions() []ems.Option {
	alpha := 1.0
	if j.labels {
		alpha = 0.7
	}
	opts := []ems.Option{
		ems.WithMinFrequency(0), ems.WithSelectionThreshold(0.1), ems.WithDelta(0.005), ems.WithAlpha(alpha),
	}
	if j.labels {
		opts = append(opts, ems.WithLabelSimilarity(ems.QGramCosine(3)))
	}
	return append(opts, ems.WithRepairOptions(ems.RepairOptions{}))
}

func (j *svcJob) logs() (*ems.Log, *ems.Log, error) {
	lenient := ems.ReadOptions{Lenient: true}
	l1, _, err := ems.ReadCSVWith(strings.NewReader(j.req.Log1.CSV), "log1", lenient)
	if err != nil {
		return nil, nil, err
	}
	l2, _, err := ems.ReadCSVWith(strings.NewReader(j.req.Log2.CSV), "log2", lenient)
	return l1, l2, err
}

// svcCluster is two in-process emsd nodes serving on loopback.
type svcCluster struct {
	nodes  [2]*server.Server
	https  [2]*http.Server
	urls   [2]string
	dirs   [2]string
	served sync.WaitGroup
	bootMS float64 // server.New of both nodes, recovery replay included
	client *http.Client
}

var nodeIDs = [2]string{"node-a", "node-b"}

// bootCluster starts both nodes on the given data directories.
func bootCluster(dirs [2]string) (*svcCluster, error) {
	c := &svcCluster{dirs: dirs, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clusterClients},
		Timeout:   60 * time.Second,
	}}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.urls[i] = "http://" + ln.Addr().String()
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	start := time.Now()
	for i := range c.nodes {
		peer := 1 - i
		s, err := server.New(server.Config{
			NodeID:  nodeIDs[i],
			DataDir: dirs[i],
			Log:     quiet,
			Cluster: &server.ClusterConfig{
				Advertise: c.urls[i],
				Peers:     []cluster.Node{{ID: nodeIDs[peer], Addr: c.urls[peer]}},
			},
		})
		if err != nil {
			for _, n := range c.nodes[:i] {
				shutdownNode(n)
			}
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		c.nodes[i] = s
	}
	c.bootMS = ms(time.Since(start))
	for i, ln := range lns {
		c.https[i] = &http.Server{Handler: c.nodes[i].Handler()}
		c.served.Add(1)
		go func(h *http.Server, ln net.Listener) {
			defer c.served.Done()
			_ = h.Serve(ln) // returns http.ErrServerClosed on shutdown
		}(c.https[i], ln)
	}
	return c, nil
}

func shutdownNode(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain timeout only means stragglers were interrupted
}

// close stops the listeners, then both nodes, and waits for the serving
// goroutines to return.
func (c *svcCluster) close() {
	for _, h := range c.https {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = h.Shutdown(ctx)
		cancel()
	}
	c.served.Wait()
	for _, n := range c.nodes {
		shutdownNode(n)
	}
	c.client.CloseIdleConnections()
}

// svcOp is what one client operation observed.
type svcOp struct {
	job                      int // index into the run's jobs
	fresh, forwarded, hit    bool
	submit, done, get, total float64 // ms; done: from submit to completion
	wallMS                   float64 // JobView.wall_ms of the owner's job
	digest                   uint64  // of the result body
	traceID                  string
	err                      error
}

// do runs one operation against node A: submit, await completion on the
// owning node's Job.Done channel, fetch the result through node A.
func (c *svcCluster) do(job *svcJob, traceID string) (op svcOp) {
	op.traceID = traceID
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.urls[0]+"/v1/jobs", bytes.NewReader(job.body))
	if err != nil {
		op.err = err
		return op
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Request-ID", traceID)
	}
	var view server.JobView
	if op.err = c.call(req, http.StatusAccepted, &view); op.err != nil {
		return op
	}
	t1 := time.Now()
	owner, local := 0, view.ID
	if id, node, ok := strings.Cut(view.ID, "@"); ok {
		local = id
		if owner = indexOf(node); owner < 0 {
			op.err = fmt.Errorf("job %s: unknown owner", view.ID)
			return op
		}
	}
	j, ok := c.nodes[owner].Job(local)
	if !ok {
		op.err = fmt.Errorf("job %s: not on its owner", view.ID)
		return op
	}
	<-j.Done()
	t2 := time.Now()
	final := j.View()
	if final.Status != server.StatusDone {
		op.err = fmt.Errorf("job %s: %s: %s", view.ID, final.Status, final.Error)
		return op
	}
	resp, err := c.client.Get(c.urls[0] + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		op.err = err
		return op
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET result: %s: %s", resp.Status, body)
	}
	if err != nil {
		op.err = err
		return op
	}
	t3 := time.Now()
	h := fnv.New64a()
	h.Write(body)
	op.digest = h.Sum64()
	op.forwarded, op.hit, op.wallMS = owner != 0, view.CacheHit, final.WallMS
	op.submit, op.done, op.get, op.total = ms(t1.Sub(t0)), ms(t2.Sub(t0)), ms(t3.Sub(t2)), ms(t3.Sub(t0))
	return op
}

// call sends req and decodes a JSON reply with the wanted status into out.
func (c *svcCluster) call(req *http.Request, want int, out any) error {
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func (c *svcCluster) get(node int, path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.urls[node]+path, nil)
	if err != nil {
		return err
	}
	return c.call(req, http.StatusOK, out)
}

func indexOf(node string) int {
	for i, id := range nodeIDs {
		if id == node {
			return i
		}
	}
	return -1
}

// runSequential submits jobs one after another and fails on the first
// error; set-up uses it for the history and warm-up jobs.
func (c *svcCluster) runSequential(jobs []*svcJob) error {
	for _, j := range jobs {
		if op := c.do(j, ""); op.err != nil {
			return op.err
		}
	}
	return nil
}

// svcStats is the part of /v1/stats the benchmark reads.
type svcStats struct {
	CacheHits         float64 `json:"cache_hits"`
	CacheMisses       float64 `json:"cache_misses"`
	RepairDropped     float64 `json:"repair_events_dropped"`
	RepairReordered   float64 `json:"repair_events_reordered"`
	RepairImputed     float64 `json:"repair_events_imputed"`
	RepairQuarantined float64 `json:"repair_traces_quarantined"`
}

func (c *svcCluster) stats() (svcStats, error) {
	var sum svcStats
	for i := range c.nodes {
		var s svcStats
		if err := c.get(i, "/v1/stats", &s); err != nil {
			return sum, err
		}
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.RepairDropped += s.RepairDropped
		sum.RepairReordered += s.RepairReordered
		sum.RepairImputed += s.RepairImputed
		sum.RepairQuarantined += s.RepairQuarantined
	}
	return sum, nil
}

// journalBytes is the size of both nodes' write-ahead logs on disk.
func (c *svcCluster) journalBytes() (int64, error) {
	var total int64
	for _, d := range c.dirs {
		err := filepath.WalkDir(filepath.Join(d, "journal"), func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err == nil {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// copyDir copies a data directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

func makeSvcJobs(cfg runConfig, base int64, n int) ([]*svcJob, error) {
	jobs := make([]*svcJob, n)
	for k := range jobs {
		j, err := makeSvcJob(cfg, base+int64(k), int(base)+k)
		if err != nil {
			return nil, err
		}
		jobs[k] = j
	}
	return jobs, nil
}

func runCluster(cfg runConfig) (*result, error) {
	ph := newPhases()
	history, warm := clusterHistoryJobs, clusterWarmJobs
	n := rounds(cfg, clusterRounds)
	fresh := n * clusterFreshPerRound
	if cfg.toy {
		history, warm, fresh = 4, 2, 8
	}
	jobs, err := makeSvcJobs(cfg, 1, fresh)
	if err != nil {
		return nil, err
	}
	historyJobs, err := makeSvcJobs(cfg, clusterHistoryModelBase, history)
	if err != nil {
		return nil, err
	}
	warmJobs, err := makeSvcJobs(cfg, clusterWarmModelBase, warm)
	if err != nil {
		return nil, err
	}

	ph.done("inputs")
	c, setup, bootMS, err := setUpCluster(cfg, historyJobs, warmJobs)
	if err != nil {
		return nil, err
	}
	ph.done("set-up")
	defer c.close()

	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	journal0, err := c.journalBytes()
	if err != nil {
		return nil, err
	}
	m := startMeter()
	all := drive(cfg, c, jobs)
	m.stop()
	ph.done("timed phase")
	// Every job has finished: what the nodes retain now is what they keep
	// of finished jobs.
	m.sampleRetained()
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	journal1, err := c.journalBytes()
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	failed := 0
	for _, op := range all {
		if op.err != nil {
			failed++
			chk.fail("job %d: %v", op.job, op.err)
			continue
		}
		m.latencies = append(m.latencies, op.total)
	}
	libs, err := checkCluster(chk, jobs, all)
	if err != nil {
		return nil, err
	}
	ph.done("checks")
	chk.report()
	res := &result{Correct: chk.ok(), Attempted: len(all), Failed: failed}
	if !cfg.trace {
		var fm, bounds []float64
		for k, lib := range libs {
			fm = append(fm, ems.Evaluate(lib.res.Mapping, jobs[k].truth).FMeasure)
			bounds = append(bounds, lib.res.ErrorBound)
		}
		res.Metrics = m.endToEnd(setup, mean(fm), median(bounds))
		return res, nil
	}
	spans, err := c.traceSpans(all)
	if err != nil {
		return nil, err
	}
	vals := svcLayers(all, spans)
	vals["server.boot_ms"] = median(bootMS)
	vals["journal.bytes_per_job"] = float64(journal1-journal0) / float64(len(jobs))
	vals["server.cache_hit_ratio"] = (after.CacheHits - before.CacheHits) /
		(after.CacheHits - before.CacheHits + after.CacheMisses - before.CacheMisses)
	vals["repair.events_touched_per_job"] = (after.RepairDropped + after.RepairReordered + after.RepairImputed -
		before.RepairDropped - before.RepairReordered - before.RepairImputed) / float64(len(jobs))
	vals["repair.traces_quarantined"] = after.RepairQuarantined - before.RepairQuarantined
	var calls, maxBound float64
	for _, lib := range libs {
		calls += float64(lib.labelCalls)
		maxBound = math.Max(maxBound, lib.res.ErrorBound)
	}
	vals["core.max_error_bound"] = maxBound
	vals["label.calls_per_op"] = calls / float64(len(jobs))
	res.Metrics = layerMetrics(vals)
	return res, nil
}

// setUpCluster prepares the data directories and boots the cluster the
// timed phase runs on. The nodes boot on data directories that already
// hold the journals of finished jobs, so boot includes recovery replay.
// Set-up is repeated, each time from a fresh copy of those directories;
// every cluster but the last is shut down again.
func setUpCluster(cfg runConfig, history, warm []*svcJob) (c *svcCluster, setup []time.Duration, bootMS []float64, err error) {
	var pristine [2]string
	for i := range pristine {
		pristine[i] = filepath.Join(cfg.workDir, "history-"+nodeIDs[i])
	}
	if c, err = bootCluster(pristine); err != nil {
		return nil, nil, nil, err
	}
	err = c.runSequential(history)
	c.close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("history jobs: %w", err)
	}
	for rep := 0; rep < setupReps; rep++ {
		var dirs [2]string
		for i := range dirs {
			dirs[i] = filepath.Join(cfg.workDir, fmt.Sprintf("rep%d-%s", rep, nodeIDs[i]))
			if err := copyDir(pristine[i], dirs[i]); err != nil {
				return nil, nil, nil, err
			}
		}
		start := time.Now()
		if c, err = bootCluster(dirs); err != nil {
			return nil, nil, nil, err
		}
		if err := c.runSequential(warm); err != nil {
			c.close()
			return nil, nil, nil, fmt.Errorf("warm-up jobs: %w", err)
		}
		setup = append(setup, time.Since(start))
		bootMS = append(bootMS, c.bootMS)
		if rep < setupReps-1 {
			c.close()
		}
	}
	return c, setup, bootMS, nil
}

// drive runs the timed load: two closed-loop clients, each taking every
// other fresh job and, after every second fresh job, repeating the
// previous one, long finished by then.
func drive(cfg runConfig, c *svcCluster, jobs []*svcJob) []svcOp {
	ops := make([][]svcOp, clusterClients)
	var wg sync.WaitGroup
	for cl := range ops {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var mine []int
			for k := cl; k < len(jobs); k += clusterClients {
				mine = append(mine, k)
			}
			for i, k := range mine {
				op := c.do(jobs[k], traceID(cfg, cl, i, "f"))
				op.job, op.fresh = k, true
				ops[cl] = append(ops[cl], op)
				if i%2 == 1 {
					op := c.do(jobs[mine[i-1]], traceID(cfg, cl, i, "r"))
					op.job = mine[i-1]
					ops[cl] = append(ops[cl], op)
				}
			}
		}(cl)
	}
	wg.Wait()
	var all []svcOp
	for _, o := range ops {
		all = append(all, o...)
	}
	return all
}

// traceID names an operation's trace in the traced run; untraced runs
// let emsd generate its own.
func traceID(cfg runConfig, client, i int, kind string) string {
	if !cfg.trace {
		return ""
	}
	return fmt.Sprintf("perfbench-%d-%d-%s", client, i, kind)
}

// libResult is the library's result for one fresh job.
type libResult struct {
	res        *ems.Result
	labelCalls int64
}

// checkCluster checks every operation's result: byte-identical to library
// ems.Match with the options emsd derives, repeats equal to their first
// result, the library result within its certificate of the reference
// evaluated on the repaired logs, and the properties every result has.
func checkCluster(chk *checker, jobs []*svcJob, ops []svcOp) ([]libResult, error) {
	libs := make([]libResult, len(jobs))
	want := make([]uint64, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, j *svcJob) {
			defer wg.Done()
			defer func() { <-sem }()
			l1, l2, err := j.logs()
			if err != nil {
				errs[k] = err
				return
			}
			opts := j.libraryOptions()
			var counter *countingLabels
			if j.labels {
				counter = &countingLabels{sim: ems.QGramCosine(3)}
				opts = append(opts, ems.WithLabelSimilarity(counter.similarity))
			}
			res, err := ems.Match(l1, l2, opts...)
			if err != nil {
				errs[k] = err
				return
			}
			libs[k].res = res
			if counter != nil {
				libs[k].labelCalls = counter.calls.Load()
			}
			var b bytes.Buffer
			if err := res.WriteJSON(&b); err != nil {
				errs[k] = err
				return
			}
			h := fnv.New64a()
			h.Write(b.Bytes())
			want[k] = h.Sum64()
			if shared, err := checkProperties(res, l1, l2); err != nil || shared > 0 {
				chk.fail("job %d: %d events mapped twice, %v", k, shared, err)
			}
			if err := checkRepaired(res, l1, l2, j.labels); err != nil {
				chk.fail("job %d: %v", k, err)
			}
		}(k, j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, op := range ops {
		if op.err == nil && op.digest != want[op.job] {
			chk.fail("job %d: emsd result differs from library ems.Match (fresh=%t)", op.job, op.fresh)
		}
	}
	return libs, nil
}

// checkRepaired compares a library result with the reference evaluated on
// the logs as the default repair pipeline leaves them.
func checkRepaired(res *ems.Result, l1, l2 *ems.Log, labels bool) error {
	p := repair.Default(repair.Options{})
	r1, _, err := p.Run(l1)
	if err != nil {
		return err
	}
	r2, _, err := p.Run(l2)
	if err != nil {
		return err
	}
	g1, g2, err := refGraphs(r1, r2)
	if err != nil {
		return err
	}
	rc := refConfig{alpha: 1, c: 0.8}
	if labels {
		rc.alpha, rc.labels = 0.7, ems.QGramCosine(3)
	}
	ref, err := refSimilarity(g1, g2, rc)
	if err != nil {
		return err
	}
	dev, err := maxDeviation(res, ref)
	if err != nil {
		return err
	}
	if allowed := res.ErrorBound + engineTolerance(rc.alpha) + ref.tol; dev > allowed {
		return fmt.Errorf("max |Sim - reference| = %.3g exceeds the certified %.3g", dev, allowed)
	}
	return nil
}

// traceSpans fetches every operation's cluster-assembled trace from node A
// once all jobs are done.
func (c *svcCluster) traceSpans(ops []svcOp) (map[string][]obs.SpanView, error) {
	out := make(map[string][]obs.SpanView, len(ops))
	for _, op := range ops {
		if op.err != nil || op.traceID == "" {
			continue
		}
		var tv server.TraceView
		if err := c.get(0, "/v1/traces/"+op.traceID, &tv); err != nil {
			return nil, err
		}
		if len(tv.Partial) > 0 {
			return nil, fmt.Errorf("trace %s: peers %v unreachable", op.traceID, tv.Partial)
		}
		out[op.traceID] = tv.Spans
	}
	return out, nil
}

// svcLayers derives the per-layer figures from the client-side timings and
// the spans emsd recorded for each operation.
func svcLayers(ops []svcOp, spans map[string][]obs.SpanView) map[string]float64 {
	var submitFresh, submitHit, queueWait, result, fwdSubmit, proxyResult []float64
	var compute, parse, build, sel, agree, labm, rep, hop []float64
	forwarded := 0
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if op.forwarded {
			forwarded++
			proxyResult = append(proxyResult, op.get)
		}
		if !op.fresh {
			submitHit = append(submitHit, op.submit)
			continue
		}
		submitFresh = append(submitFresh, op.submit)
		queueWait = append(queueWait, op.done-op.wallMS)
		result = append(result, op.get)
		// Span durations by name, the peer:<node> hops of a forwarded job
		// under "peer".
		total := make(map[string]float64)
		for _, s := range spans[op.traceID] {
			name := s.Name
			if strings.HasPrefix(name, "peer:") {
				name = "peer"
			}
			total[name] += s.DurationMS
		}
		compute = append(compute, total["compute"])
		parse = append(parse, total["parse"])
		build = append(build, total["graph-build"])
		sel = append(sel, total["select"])
		agree = append(agree, total["agreement-cache"])
		labm = append(labm, total["label-matrix"])
		rep = append(rep, total["repair"])
		if op.forwarded {
			fwdSubmit = append(fwdSubmit, op.submit)
			hop = append(hop, total["peer"])
		}
	}
	return map[string]float64{
		"server.submit_fresh_ms":    mean(submitFresh),
		"server.submit_hit_ms":      mean(submitHit),
		"server.queue_wait_ms":      mean(queueWait),
		"server.result_ms":          mean(result),
		"server.compute_ms":         mean(compute),
		"eventlog.parse_ms":         mean(parse),
		"depgraph.build_ms":         mean(build),
		"matching.select_ms":        mean(sel),
		"core.agreement_cache_ms":   mean(agree),
		"core.label_matrix_ms":      mean(labm),
		"repair.ms":                 mean(rep),
		"cluster.forward_submit_ms": mean(fwdSubmit),
		"cluster.proxy_result_ms":   mean(proxyResult),
		"cluster.peer_hop_ms":       mean(hop),
		"cluster.forwarded_share":   float64(forwarded) / float64(len(ops)),
	}
}
