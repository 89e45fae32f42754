package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMetricsCountersAndRates(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	m.inc(jobsSubmitted)
	m.inc(jobsSubmitted)
	m.inc(jobsSubmitted)
	m.inc(cacheMisses)
	m.inc(cacheHits)
	m.inc(cacheHits)
	m.JobDone(StatusDone, 10*time.Millisecond, true)
	m.JobDone(StatusDone, 30*time.Millisecond, true)
	m.JobDone(StatusFailed, 0, false)
	m.JobDone(StatusCancelled, 0, false)
	s := m.Snapshot()
	if s.Counters["jobs_submitted"] != 3 || s.Counters["jobs_completed"] != 2 || s.Counters["jobs_failed"] != 1 || s.Counters["jobs_cancelled"] != 1 {
		t.Errorf("counters = %+v", s)
	}
	if s.Counters["cache_hits"] != 2 || s.Counters["cache_misses"] != 1 {
		t.Errorf("cache counters = %+v", s)
	}
	if want := 2.0 / 3.0; s.CacheHitRate < want-1e-9 || s.CacheHitRate > want+1e-9 {
		t.Errorf("hit rate = %g, want %g", s.CacheHitRate, want)
	}
	if s.AvgWallMillis < 19 || s.AvgWallMillis > 21 {
		t.Errorf("avg wall = %g ms, want ~20", s.AvgWallMillis)
	}
	if s.MaxWallMillis < 29 || s.MaxWallMillis > 31 {
		t.Errorf("max wall = %g ms, want ~30", s.MaxWallMillis)
	}
	if s.LastWallMillis < 29 || s.LastWallMillis > 31 {
		t.Errorf("last wall = %g ms, want ~30", s.LastWallMillis)
	}
}

// TestMetricsZeroValueSnapshot: a fresh Metrics snapshots every counter of
// the table at zero, with no division blowups in the derived rates.
func TestMetricsZeroValueSnapshot(t *testing.T) {
	s := newMetrics(obs.NewRegistry()).Snapshot()
	if s.CacheHitRate != 0 || s.AvgWallMillis != 0 {
		t.Errorf("zero-value snapshot not zero: %+v", s)
	}
	if len(s.Counters) != len(counterSpecs) {
		t.Errorf("snapshot has %d counters, the table %d", len(s.Counters), len(counterSpecs))
	}
	for k, v := range s.Counters {
		if v != 0 {
			t.Errorf("%s = %d in a fresh snapshot", k, v)
		}
	}
}

// TestMetricsConcurrent exercises every mutator from many goroutines; run
// with -race this pins the "safe for concurrent use" contract.
func TestMetricsConcurrent(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	var wg sync.WaitGroup
	const per = 100
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.inc(jobsSubmitted)
				m.inc(cacheMisses)
				m.inc(cacheHits)
				m.JobDone(StatusDone, time.Millisecond, true)
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counters["jobs_submitted"] != 8*per || s.Counters["jobs_completed"] != 8*per {
		t.Errorf("lost updates: %+v", s)
	}
}
