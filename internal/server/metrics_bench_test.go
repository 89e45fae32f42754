package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// mutexMetrics replicates the pre-atomic Metrics implementation so the two
// synchronization strategies can be compared head to head:
//
//	go test ./internal/server/ -bench 'MetricsContention' -cpu 1,4,8
type mutexMetrics struct {
	mu        sync.Mutex
	submitted uint64
	cacheHits uint64
	completed uint64
	totalWall time.Duration
	timedJobs uint64
}

func (m *mutexMetrics) Submitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

func (m *mutexMetrics) CacheHit() {
	m.mu.Lock()
	m.cacheHits++
	m.mu.Unlock()
}

func (m *mutexMetrics) JobDone(wall time.Duration) {
	m.mu.Lock()
	m.completed++
	m.timedJobs++
	m.totalWall += wall
	m.mu.Unlock()
}

// BenchmarkMetricsContentionMutex measures the lock-based strategy under the
// submission hot path (one counter bump per event) with all goroutines
// hammering the same struct.
func BenchmarkMetricsContentionMutex(b *testing.B) {
	var m mutexMetrics
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Submitted()
			m.CacheHit()
		}
	})
}

// BenchmarkMetricsContentionAtomic is the same workload against the real
// (atomic) Metrics.
func BenchmarkMetricsContentionAtomic(b *testing.B) {
	m := newMetrics(obs.NewRegistry())
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.inc(jobsSubmitted)
			m.inc(cacheHits)
		}
	})
}

// BenchmarkMetricsJobDoneMutex / ...Atomic compare the heavier completion
// path, which touches five fields including a running maximum.
func BenchmarkMetricsJobDoneMutex(b *testing.B) {
	var m mutexMetrics
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.JobDone(time.Millisecond)
		}
	})
}

func BenchmarkMetricsJobDoneAtomic(b *testing.B) {
	m := newMetrics(obs.NewRegistry())
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.JobDone(StatusDone, time.Millisecond, true)
		}
	})
}
