package server

import (
	"repro/internal/obs"
)

// serverObs is the server's Prometheus surface: the registry served at
// GET /metrics, the HTTP middleware metrics, and the instruments the job
// path feeds directly. The job counters of Metrics live in the same
// registry, so the /v1/stats JSON and the exposition read the same values.
type serverObs struct {
	reg      *obs.Registry
	http     *obs.HTTPMetrics
	jobDur   *obs.Histogram
	phaseDur *obs.HistogramVec // span durations, fed by the span-end hook

	// cluster instruments, labelled by peer node ID and pre-seeded at boot
	// so every configured peer shows a zero series from the first scrape.
	forwards   *obs.CounterVec // submissions placed on a peer
	failovers  *obs.CounterVec // attempts skipped or failed over away from a peer
	proxied    *obs.CounterVec // job reads/cancels relayed to a peer
	peerUp     *obs.GaugeVec   // 1 while a peer is believed reachable
	batchJobs  *obs.Counter    // accepted POST /v1/batch coordinations
	batchPairs *obs.CounterVec // terminal batch pairs by outcome
}

// jobDurationBuckets covers the matching workload: sub-millisecond toy pairs
// through multi-minute warehouse logs.
func jobDurationBuckets() []float64 {
	return []float64{.001, .005, .025, .1, .5, 1, 5, 30, 60, 300}
}

// newServerObs builds the registry with the server's job counters
// (s.metrics), gauges and instruments.
func newServerObs(s *Server) *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{reg: r, http: obs.NewHTTPMetrics(r, "emsd")}

	v := Version()
	r.GaugeVec("emsd_build_info",
		"Build identity of the running emsd binary; the value is always 1.",
		"version", "revision", "go_version").
		With(v.Version, v.Revision, v.GoVersion).Set(1)

	s.metrics = newMetrics(r)

	r.GaugeFunc("emsd_queue_depth", "Jobs queued but not yet running.",
		func() float64 { return float64(s.pool.Depth()) })
	r.GaugeFunc("emsd_jobs_running", "Jobs currently computing.",
		func() float64 { return float64(s.pool.Running()) })
	r.GaugeFunc("emsd_cache_entries", "Entries in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	r.GaugeFunc("emsd_journal_bytes", "Size of the job journal on disk; 0 without persistence.",
		func() float64 {
			if s.persist == nil {
				return 0
			}
			return float64(s.persist.journalBytes())
		})
	r.GaugeFunc("emsd_mem_budget_bytes", "Memory budget the resource governor admits jobs against; 0 without -mem-budget.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.budget)
		})
	r.GaugeFunc("emsd_mem_committed_bytes", "Predicted bytes currently reserved by admitted jobs.",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.committed.Load())
		})

	o.jobDur = r.Histogram("emsd_job_duration_seconds",
		"Wall time of computed jobs (cache hits and coalesced jobs excluded).",
		jobDurationBuckets())
	o.phaseDur = r.HistogramVec("emsd_phase_seconds",
		"Trace span durations by pipeline phase (parse, compute, engine phases, peer hops); degraded marks spans of ladder-degraded jobs.",
		obs.DefBuckets(), "phase", "degraded")

	o.forwards = r.CounterVec("emsd_peer_forwards_total",
		"Submissions and batch pairs placed on a peer node.", "peer")
	o.failovers = r.CounterVec("emsd_peer_failovers_total",
		"Placement attempts moved off a peer because it was down or unreachable.", "peer")
	o.proxied = r.CounterVec("emsd_peer_proxied_total",
		"Job reads and cancels relayed to the peer owning a qualified job ID.", "peer")
	o.peerUp = r.GaugeVec("emsd_peer_up",
		"1 while the peer is believed reachable, 0 while it is down.", "peer")
	o.batchJobs = r.Counter("emsd_batch_jobs_total",
		"Accepted POST /v1/batch coordinations.")
	o.batchPairs = r.CounterVec("emsd_batch_pairs_total",
		"Terminal batch pairs by outcome.", "outcome")
	o.batchPairs.With("done").Add(0)
	o.batchPairs.With("failed").Add(0)
	for _, p := range s.cluster.cfg.Peers {
		o.forwards.With(p.ID).Add(0)
		o.failovers.With(p.ID).Add(0)
		o.proxied.With(p.ID).Add(0)
		o.peerUp.With(p.ID).Set(1) // health starts optimistic
	}
	r.GaugeFunc("emsd_peers_up", "Peers currently believed reachable.",
		func() float64 { return float64(s.cluster.peersUp()) })
	return o
}

// peerForward / peerFailover / peerProxy / peerUpGauge are the cluster
// paths' metric hooks, keyed by peer node ID.
func (o *serverObs) peerForward(id string)  { o.forwards.With(id).Inc() }
func (o *serverObs) peerFailover(id string) { o.failovers.With(id).Inc() }
func (o *serverObs) peerProxy(id string)    { o.proxied.With(id).Inc() }

func (o *serverObs) peerUpGauge(id string, up bool) {
	v := 0.0
	if up {
		v = 1
	}
	o.peerUp.With(id).Set(v)
}
