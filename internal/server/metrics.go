package server

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// counterSpec declares one job counter: its /v1/stats key and its /metrics
// family name and help text.
type counterSpec struct{ key, name, help string }

// counterSpecs is the counter table in declaration order; a counter is its
// row index.
var counterSpecs []counterSpec

// counter names one job counter.
type counter int

func declare(key, name, help string) counter {
	counterSpecs = append(counterSpecs, counterSpec{key, name, help})
	return counter(len(counterSpecs) - 1)
}

// key is the counter's /v1/stats key.
func (c counter) key() string { return counterSpecs[c].key }

// The job counters, one row each. Both /v1/stats and /metrics render from
// this table, so adding a counter takes one row here plus its call site.
var (
	jobsSubmitted     = declare("jobs_submitted", "emsd_jobs_submitted_total", "Accepted job submissions.")
	jobsCompleted     = declare("jobs_completed", "emsd_jobs_completed_total", "Jobs finished successfully.")
	jobsFailed        = declare("jobs_failed", "emsd_jobs_failed_total", "Jobs that reached the failed state.")
	jobsCancelled     = declare("jobs_cancelled", "emsd_jobs_cancelled_total", "Jobs cancelled by a client or by shutdown.")
	jobsRejected      = declare("jobs_rejected", "emsd_jobs_rejected_total", "Submissions refused before queueing (bad request or shutdown).")
	jobsShed          = declare("jobs_shed", "emsd_jobs_shed_total", "Submissions turned away because the job queue was full.")
	jobsPanicked      = declare("jobs_panicked", "emsd_jobs_panicked_total", "Jobs whose computation panicked (contained; the daemon kept serving).")
	jobsTimedOut      = declare("jobs_deadline_exceeded", "emsd_jobs_deadline_exceeded_total", "Jobs aborted by their wall-clock deadline.")
	cacheHits         = declare("cache_hits", "emsd_cache_hits_total", "Jobs served from the result cache or coalesced onto an in-flight twin.")
	cacheMisses       = declare("cache_misses", "emsd_cache_misses_total", "Jobs that required a fresh computation.")
	jobsRecovered     = declare("jobs_recovered", "emsd_jobs_recovered_total", "Unfinished jobs re-enqueued from the journal at boot.")
	jobsResumed       = declare("jobs_resumed_from_checkpoint", "emsd_jobs_resumed_total", "Recovered jobs restarted from a persisted engine checkpoint.")
	jobsRetried       = declare("jobs_retried", "emsd_jobs_retried_total", "Jobs re-enqueued after a transient in-process failure.")
	checkpoints       = declare("checkpoints_written", "emsd_checkpoints_written_total", "Engine checkpoints persisted to disk.")
	ingestSkipped     = declare("ingest_records_skipped", "emsd_ingest_records_skipped_total", "Input records discarded by lenient ingestion.")
	jobsRepaired      = declare("jobs_repaired", "emsd_jobs_repaired_total", "Completed jobs that ran the dirty-log repair pipeline.")
	repairDropped     = declare("repair_events_dropped", "emsd_repair_events_dropped_total", "Duplicate events removed by the repair pipeline.")
	repairReordered   = declare("repair_events_reordered", "emsd_repair_events_reordered_total", "Events transposed back into the dominant order by the repair pipeline.")
	repairImputed     = declare("repair_events_imputed", "emsd_repair_events_imputed_total", "Missing events re-inserted by the repair pipeline.")
	repairQuarantined = declare("repair_traces_quarantined", "emsd_repair_traces_quarantined_total", "Traces the repair pipeline quarantined as unrepairable.")
	jobsDegraded      = declare("jobs_degraded", "emsd_jobs_degraded_total", "Jobs downgraded a rung by the degradation ladder under memory pressure.")
	jobsTooLarge      = declare("jobs_too_large", "emsd_jobs_too_large_total", "Jobs rejected because their predicted footprint exceeds the whole memory budget.")
)

// Metrics aggregates service counters. All methods are safe for concurrent
// use. The job counters live in the server's obs.Registry, so /metrics
// serves them directly; Snapshot reads them individually, so a snapshot
// taken mid-update may mix counters that are one event apart. Each counter
// is monotonic on its own, which is the consistency Prometheus-style
// scrapes need.
type Metrics struct {
	counters []*obs.Counter // indexed by counter

	// Wall-time aggregates, all in nanoseconds (timedJobs counts the jobs
	// that contributed). totalWall/timedJobs tear at worst by one job between
	// their two loads in Snapshot; the average is diagnostic, not billing.
	totalWall atomic.Int64
	maxWall   atomic.Int64
	lastWall  atomic.Int64
	timedJobs atomic.Uint64
}

// newMetrics registers every job counter of the table in r.
func newMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{counters: make([]*obs.Counter, len(counterSpecs))}
	for i, c := range counterSpecs {
		m.counters[i] = r.Counter(c.name, c.help)
	}
	return m
}

// inc adds one to a counter; add adds n.
func (m *Metrics) inc(c counter)           { m.counters[c].Inc() }
func (m *Metrics) add(c counter, n uint64) { m.counters[c].Add(float64(n)) }

// Stats is a point-in-time snapshot of the metrics plus the live gauges the
// server injects (queue depth, running jobs, cache size). In JSON the job
// counters sit beside the gauges, each under its table key.
type Stats struct {
	// Counters holds every job counter by its /v1/stats key.
	Counters map[string]uint64 `json:"-"`

	QueueDepth     int     `json:"queue_depth"`
	Running        int     `json:"jobs_running"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	CacheSize      int     `json:"cache_size"`
	AvgWallMillis  float64 `json:"avg_wall_ms"`
	MaxWallMillis  float64 `json:"max_wall_ms"`
	LastWallMillis float64 `json:"last_wall_ms"`
	// JournalBytes is zero on a server without a data directory.
	JournalBytes int64 `json:"journal_bytes"`

	// Governor state: Governor is always present ("ok" on an unbudgeted
	// node); the byte gauges are zero without a -mem-budget.
	Governor          string  `json:"governor"`
	Load              float64 `json:"load"`
	MemBudgetBytes    int64   `json:"mem_budget_bytes"`
	MemCommittedBytes int64   `json:"mem_committed_bytes"`
}

// statsGauges is Stats without its JSON methods, for the plain struct
// encoding of the gauges.
type statsGauges Stats

// MarshalJSON renders the gauges and every counter as one flat object.
func (s Stats) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(statsGauges(s))
	if err != nil || len(s.Counters) == 0 {
		return b, err
	}
	c, err := json.Marshal(s.Counters)
	if err != nil {
		return nil, err
	}
	return append(append(b[:len(b)-1], ','), c[1:]...), nil
}

// UnmarshalJSON reads the flat object MarshalJSON writes.
func (s *Stats) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, (*statsGauges)(s)); err != nil {
		return err
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(b, &all); err != nil {
		return err
	}
	s.Counters = make(map[string]uint64, len(counterSpecs))
	for _, c := range counterSpecs {
		if v, ok := all[c.key]; ok {
			var n uint64
			if err := json.Unmarshal(v, &n); err != nil {
				return err
			}
			s.Counters[c.key] = n
		}
	}
	return nil
}

// JobRepaired records one completed job that ran the repair pipeline,
// with the pipeline's combined tallies over both logs.
func (m *Metrics) JobRepaired(dropped, reordered, imputed, quarantined uint64) {
	m.inc(jobsRepaired)
	m.add(repairDropped, dropped)
	m.add(repairReordered, reordered)
	m.add(repairImputed, imputed)
	m.add(repairQuarantined, quarantined)
}

// JobDone records a finished job: its terminal state and, for jobs that
// actually computed, the wall time of the computation.
func (m *Metrics) JobDone(status Status, wall time.Duration, computed bool) {
	switch status {
	case StatusDone:
		m.inc(jobsCompleted)
	case StatusFailed:
		m.inc(jobsFailed)
	case StatusCancelled:
		m.inc(jobsCancelled)
	}
	if computed {
		m.timedJobs.Add(1)
		m.totalWall.Add(int64(wall))
		m.lastWall.Store(int64(wall))
		for {
			cur := m.maxWall.Load()
			if int64(wall) <= cur || m.maxWall.CompareAndSwap(cur, int64(wall)) {
				break
			}
		}
	}
}

// Snapshot returns the current counters. Gauges (queue depth, running,
// cache size) are zero; the server fills them in.
func (m *Metrics) Snapshot() Stats {
	s := Stats{Counters: make(map[string]uint64, len(counterSpecs))}
	for i, c := range m.counters {
		s.Counters[counter(i).key()] = uint64(c.Value())
	}
	hits, misses := s.Counters[cacheHits.key()], s.Counters[cacheMisses.key()]
	if hits+misses > 0 {
		s.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if timed := m.timedJobs.Load(); timed > 0 {
		s.AvgWallMillis = float64(m.totalWall.Load()) / float64(time.Millisecond) / float64(timed)
	}
	s.MaxWallMillis = float64(m.maxWall.Load()) / float64(time.Millisecond)
	s.LastWallMillis = float64(m.lastWall.Load()) / float64(time.Millisecond)
	return s
}
