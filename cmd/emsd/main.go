// Command emsd serves event-log matching over HTTP: a long-running daemon
// exposing the ems engine behind an async job API with a bounded worker
// pool, a content-addressed result cache, and a metrics endpoint.
//
// Usage:
//
//	emsd [-addr :8484] [-workers N] [-engine-workers N] [-cache N] [-allow-paths]
//	     [-job-timeout D] [-max-job-timeout D] [-max-queue-depth N]
//	     [-data-dir DIR] [-checkpoint-every N] [-job-retries N]
//	     [-mem-budget SIZE] [-mem-pressure F]
//	     [-log-format text|json] [-slow-job D] [-debug-addr ADDR]
//	     [-trace-sample F] [-trace-retain N]
//	     [-node-id ID] [-advertise URL] [-peers id=url,id=url,...]
//
// Clustering: give every node a unique -node-id and list the other members
// with -peers. Each node forwards submissions to the consistent-hash owner
// of the job's content key, POST /v1/batch fans an N×M grid of log pairs
// across the whole cluster, and job handles stay valid on whichever node a
// client talks to. See "Clustering emsd" in the README.
//
// Submit a job, poll it, fetch the result:
//
//	curl -s -X POST localhost:8484/v1/jobs -d '{
//	  "log1": {"csv": "case,event\nc1,A\nc1,C\n"},
//	  "log2": {"csv": "case,event\nc1,1\nc1,2\n"},
//	  "options": {"labels": true}
//	}'
//	curl -s localhost:8484/v1/jobs/job-000001
//	curl -s localhost:8484/v1/jobs/job-000001/result
//
// Observability: GET /metrics serves the Prometheus exposition,
// GET /v1/jobs/{id}/progress streams a running job's per-round convergence,
// GET /v1/traces/{trace_id} assembles a request's cluster-wide span tree
// (see "Tracing emsd" in the README), and -debug-addr opens a separate
// admin listener with net/http/pprof and
// expvar (keep it off public interfaces). Logs are structured (slog);
// -log-format json emits one JSON object per line.
//
// SIGINT/SIGTERM drain in-flight jobs and cancel queued ones before exit.
package main

import (
	"bufio"
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8484", "listen address")
		workers    = flag.Int("workers", 0, "concurrent match computations (0 = GOMAXPROCS)")
		engWorkers = flag.Int("engine-workers", 0, "per-job iteration-engine goroutines (0 = GOMAXPROCS/workers, -1 = serial)")
		cacheSize  = flag.Int("cache", 128, "result cache capacity in entries (-1 disables)")
		maxJobs    = flag.Int("max-jobs", 10000, "job registry retention bound")
		allowPaths = flag.Bool("allow-paths", false, "allow jobs to read logs from server-local file paths")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout; stragglers are interrupted in-engine afterwards")
		jobTimeout = flag.Duration("job-timeout", 0, "default per-job wall-clock deadline (0 = none); requests may override via options.timeout_ms")
		maxTimeout = flag.Duration("max-job-timeout", 0, "hard cap on every job deadline, including requests that ask for none (0 = no cap)")
		maxQueue   = flag.Int("max-queue-depth", 0, "shed submissions once this many jobs are queued (0 = unbounded)")
		dataDir    = flag.String("data-dir", "", "persist jobs, checkpoints and results here; on restart unfinished jobs are recovered (empty = in-memory only)")
		ckpEvery   = flag.Int("checkpoint-every", 0, "engine rounds between persisted checkpoints of a running job (0 = default 16; needs -data-dir)")
		jobRetries = flag.Int("job-retries", 0, "retries (with backoff, from the last checkpoint) for jobs whose computation panicked (needs -data-dir)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		slowJob    = flag.Duration("slow-job", 0, "dump a job's span timeline to the log when its wall time reaches this threshold (0 = never)")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this extra admin address (empty = off; do not expose publicly)")
		checkURL   = flag.String("check-metrics", "", "fetch this /metrics URL, validate the Prometheus exposition, and exit (CI scrape gate)")
		nodeID     = flag.String("node-id", "", "this node's cluster identity; must be unique per cluster (empty = hostname, falling back to \"emsd\")")
		advertise  = flag.String("advertise", "", "base URL peers reach this node on, e.g. http://10.0.0.5:8484 (cluster mode)")
		peers      = flag.String("peers", "", "comma-separated id=url list of the other cluster members (empty = standalone)")
		memBudget  = flag.String("mem-budget", "", "memory budget for admitted jobs, e.g. 512MiB or 4GiB (also sets the Go runtime soft memory limit; empty = ungoverned)")
		pressure   = flag.Float64("mem-pressure", 0, "committed fraction of -mem-budget at which jobs start degrading (0 = default 0.75)")
		traceSmpl  = flag.Float64("trace-sample", 1, "fraction of traces stored for GET /v1/traces (deterministic by trace ID, so all nodes keep the same traces; 0 disables the store)")
		traceKeep  = flag.Int("trace-retain", 0, "per-node trace store capacity in traces (0 = default 512)")
	)
	flag.Parse()
	if *checkURL != "" {
		if err := checkExposition(*checkURL); err != nil {
			fmt.Fprintln(os.Stderr, "emsd: check-metrics:", err)
			os.Exit(1)
		}
		fmt.Println("metrics exposition ok")
		return
	}
	logger, err := newLogger(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsd:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "emsd: debug listener:", err)
			os.Exit(1)
		}
		logger.Info("debug listener up", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, debugMux()); err != nil {
				logger.Warn("debug listener stopped", "error", err)
			}
		}()
	}
	id := *nodeID
	if id == "" {
		if id, _ = os.Hostname(); id == "" {
			id = "emsd"
		}
	}
	ccfg, err := parsePeers(*peers, *advertise)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsd:", err)
		os.Exit(2)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsd: -mem-budget:", err)
		os.Exit(2)
	}
	if budget > 0 {
		// The governor bounds predicted engine allocations; the runtime soft
		// limit backs it up for everything the prediction does not cover
		// (HTTP buffers, cache copies, GC slack) by collecting harder as the
		// process approaches the same ceiling.
		debug.SetMemoryLimit(budget)
	}
	cfg := server.Config{
		NodeID:           id,
		Cluster:          ccfg,
		Workers:          *workers,
		EngineWorkers:    *engWorkers,
		CacheSize:        *cacheSize,
		MaxJobs:          *maxJobs,
		AllowPaths:       *allowPaths,
		JobTimeout:       *jobTimeout,
		MaxJobTimeout:    *maxTimeout,
		MaxQueueDepth:    *maxQueue,
		DataDir:          *dataDir,
		CheckpointEvery:  *ckpEvery,
		JobRetries:       *jobRetries,
		SlowJobThreshold: *slowJob,
		MemBudget:        budget,
		PressureFraction: *pressure,
		TraceSample:      *traceSmpl,
		TraceRetain:      *traceKeep,
		Log:              logger,
	}
	if *traceSmpl <= 0 {
		// Config.TraceSample uses 0 for "store everything" so the zero-valued
		// Config keeps traces; the CLI reads more naturally with 0 = off.
		cfg.TraceSample = -1
	}
	if err := serve(ctx, ln, cfg, *drain, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "emsd:", err)
		os.Exit(1)
	}
}

// parsePeers turns the -peers flag ("n2=http://host:8484,n3=http://...")
// into a cluster configuration; empty means standalone (nil).
func parsePeers(list, advertise string) (*server.ClusterConfig, error) {
	if list == "" {
		return nil, nil
	}
	ccfg := &server.ClusterConfig{Advertise: advertise}
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers: want id=url, got %q", entry)
		}
		ccfg.Peers = append(ccfg.Peers, cluster.Node{ID: id, Addr: url})
	}
	if len(ccfg.Peers) == 0 {
		return nil, fmt.Errorf("-peers: no peers in %q", list)
	}
	return ccfg, nil
}

// parseBytes reads a human byte size: a plain integer is bytes; the
// suffixes KB/MB/GB/TB (decimal) and KiB/MiB/GiB/TiB (binary, also bare
// K/M/G/T) scale it. Empty means 0 (ungoverned).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"TiB", 1 << 40}, {"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"TB", 1e12}, {"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3},
		{"T", 1 << 40}, {"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
		{"B", 1},
	}
	mult := int64(1)
	num := s
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a size like 512MiB or 4GiB, got %q", s)
	}
	return int64(v * float64(mult)), nil
}

// newLogger builds the process logger writing to w in the chosen format.
func newLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// checkExposition is the CI scrape gate: it fetches a live /metrics
// endpoint, fails on the first malformed exposition line, and requires all
// three instrument kinds (counter, gauge, histogram) to be present so a
// half-wired registry cannot pass.
func checkExposition(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	kinds := map[string]int{}
	lines, bad := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		lines++
		if !obs.ValidExpositionLine(line) {
			bad++
			if bad <= 5 {
				fmt.Fprintf(os.Stderr, "emsd: malformed exposition line %d: %q\n", lines, line)
			}
			continue
		}
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[3]]++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d lines malformed", bad, lines)
	}
	for _, kind := range []string{"counter", "gauge", "histogram"} {
		if kinds[kind] == 0 {
			return fmt.Errorf("no %s families in the exposition (%d lines)", kind, lines)
		}
	}
	fmt.Printf("emsd: %d exposition lines, %d counter / %d gauge / %d histogram families\n",
		lines, kinds["counter"], kinds["gauge"], kinds["histogram"])
	return nil
}

// debugMux is the admin surface of -debug-addr: the pprof profile family
// plus expvar. It is a separate mux (not http.DefaultServeMux) so importing
// net/http/pprof never leaks profiles onto the public API listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// serve runs the service on ln until ctx is cancelled, then drains: job
// intake stops, queued jobs are cancelled, running jobs get up to the drain
// timeout to finish while the HTTP listener keeps answering polls.
func serve(ctx context.Context, ln net.Listener, cfg server.Config, drain time.Duration, logw io.Writer) error {
	if cfg.Log == nil {
		cfg.Log, _ = newLogger(logw, "text")
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	peerCount := 0
	if cfg.Cluster != nil {
		peerCount = len(cfg.Cluster.Peers)
	}
	cfg.Log.Info("emsd listening", "addr", ln.Addr().String(), "workers", cfg.Workers,
		"cache", cfg.CacheSize, "node_id", cfg.NodeID, "peers", peerCount)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	cfg.Log.Info("emsd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	serr := s.Shutdown(dctx)
	herr := hs.Shutdown(dctx)
	<-errc // http.ErrServerClosed from the Serve goroutine
	st := s.Stats()
	cfg.Log.Info("emsd: stopped",
		"completed", st.Counters["jobs_completed"], "failed", st.Counters["jobs_failed"],
		"cancelled", st.Counters["jobs_cancelled"])
	if serr != nil {
		return fmt.Errorf("drain: %w", serr)
	}
	return herr
}
