package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// quietConfig silences the operational logger so contained-panic stacks do
// not clutter test output.
func quietConfig(cfg Config) Config {
	cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return cfg
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (JobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

// blockFirstRound installs a failpoint that blocks the first engine round it
// sees until release is closed, closing started when it begins. Restore via
// the returned func.
func blockFirstRound() (started, release chan struct{}, restore func()) {
	started = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	restore = failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		once.Do(func() {
			close(started)
			<-release
		})
		return failpoint.Fault{}
	})
	return started, release, restore
}

// TestPanicInjectionFailsOnlyItsJob: a panic in the middle of a computation
// fails that job with a diagnostic, bumps the panic counter, and leaves the
// daemon serving further jobs.
func TestPanicInjectionFailsOnlyItsJob(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1}))
	var once sync.Once
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		once.Do(func() { panic("injected job panic") })
		return failpoint.Fault{}
	})
	defer restore()

	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := pollJob(t, ts, view.ID)
	if final.Status != StatusFailed {
		t.Fatalf("panicked job status = %s, want failed", final.Status)
	}
	if !strings.Contains(final.Error, "panicked") || !strings.Contains(final.Error, "injected job panic") {
		t.Fatalf("panicked job error = %q", final.Error)
	}
	if st := getStats(t, ts); st.Counters["jobs_panicked"] != 1 {
		t.Fatalf("jobs_panicked = %d, want 1", st.Counters["jobs_panicked"])
	}

	// The daemon survived: a fresh (different-key) job computes normally.
	req2 := JobRequest{
		Log1: LogInput{Name: "P1", CSV: logCSV(t, permLog(6, 10, "a", 1))},
		Log2: LogInput{Name: "P2", CSV: logCSV(t, permLog(6, 10, "b", 2))},
	}
	view2, code := postJob(t, ts, req2)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit status = %d", code)
	}
	if final := pollJob(t, ts, view2.ID); final.Status != StatusDone {
		t.Fatalf("post-panic job status = %s (err %q)", final.Status, final.Error)
	}
}

// TestJobDeadlineExceeded: a job that outlives its wall-clock budget fails
// (distinct from cancelled) with a deadline diagnostic and bumps the
// deadline counter.
func TestJobDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1, JobTimeout: 5 * time.Millisecond}))
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault { return failpoint.Fault{Delay: 30 * time.Millisecond} })
	defer restore()

	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := pollJob(t, ts, view.ID)
	if final.Status != StatusFailed {
		t.Fatalf("status = %s, want failed (deadline is a failure, not a cancellation)", final.Status)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("error = %q, want deadline diagnostic", final.Error)
	}
	st := getStats(t, ts)
	if st.Counters["jobs_deadline_exceeded"] != 1 {
		t.Fatalf("jobs_deadline_exceeded = %d, want 1", st.Counters["jobs_deadline_exceeded"])
	}
	if st.Counters["jobs_cancelled"] != 0 {
		t.Fatalf("jobs_cancelled = %d, want 0", st.Counters["jobs_cancelled"])
	}
}

// TestJobTimeoutOverrideAndClamp: requests may override the default budget
// via timeout_ms, but never beyond the server's maximum — even by asking for
// no deadline at all. Negative overrides are a 400.
func TestJobTimeoutOverrideAndClamp(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1, MaxJobTimeout: 5 * time.Millisecond}))
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault { return failpoint.Fault{Delay: 30 * time.Millisecond} })
	defer restore()

	// Explicitly requesting "no deadline" (0) is clamped to the server max.
	req := paperRequest(t)
	zero := 0.0
	req.Options.TimeoutMS = &zero
	view, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if final := pollJob(t, ts, view.ID); final.Status != StatusFailed || !strings.Contains(final.Error, "deadline exceeded") {
		t.Fatalf("clamped job = %s %q, want deadline failure", final.Status, final.Error)
	}

	neg := -1.0
	bad := paperRequest(t)
	bad.Options.TimeoutMS = &neg
	if _, code := postJob(t, ts, bad); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms status = %d, want 400", code)
	}
}

// TestCancelQueuedJob: DELETE on a still-queued job finishes it immediately
// as cancelled; the worker later skips it.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1}))
	started, release, restore := blockFirstRound()
	defer restore()

	blocker, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit status = %d", code)
	}
	<-started // the single worker is now stuck inside the blocker job

	queuedReq := JobRequest{
		Log1: LogInput{Name: "Q1", CSV: logCSV(t, permLog(6, 10, "q", 3))},
		Log2: LogInput{Name: "Q2", CSV: logCSV(t, permLog(6, 10, "r", 4))},
	}
	queued, code := postJob(t, ts, queuedReq)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit status = %d", code)
	}

	view, code := deleteJob(t, ts, queued.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	if view.Status != StatusCancelled || !strings.Contains(view.Error, "cancelled by client") {
		t.Fatalf("cancelled queued job = %s %q", view.Status, view.Error)
	}

	if _, code := deleteJob(t, ts, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job status = %d, want 404", code)
	}

	close(release)
	if final := pollJob(t, ts, blocker.ID); final.Status != StatusDone {
		t.Fatalf("blocker status = %s (err %q)", final.Status, final.Error)
	}
}

// TestCancelRunningJob is the acceptance scenario: DELETE on a running job
// interrupts the computation in-engine (within one round once the round's
// work finishes) and the job ends cancelled-by-client.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1}))
	started, release, restore := blockFirstRound()
	defer restore()

	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	<-started // job is mid-round
	if _, code := deleteJob(t, ts, view.ID); code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	close(release) // the round finishes; the next stop check aborts

	final := pollJob(t, ts, view.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if !strings.Contains(final.Error, "cancelled by client") {
		t.Fatalf("error = %q, want client-cancel diagnostic (not shutdown)", final.Error)
	}
	if st := getStats(t, ts); st.Counters["jobs_cancelled"] != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", st.Counters["jobs_cancelled"])
	}
}

// TestQueueFullSheds: once MaxQueueDepth jobs wait, further fresh
// submissions get 503 + Retry-After and the shed counter moves — but
// coalescing onto an in-flight job is still served.
func TestQueueFullSheds(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1, MaxQueueDepth: 1}))
	started, release, restore := blockFirstRound()
	defer restore()

	running := paperRequest(t)
	first, code := postJob(t, ts, running)
	if code != http.StatusAccepted {
		t.Fatalf("running submit status = %d", code)
	}
	<-started

	queuedReq := JobRequest{
		Log1: LogInput{Name: "Q1", CSV: logCSV(t, permLog(6, 10, "s", 5))},
		Log2: LogInput{Name: "Q2", CSV: logCSV(t, permLog(6, 10, "t", 6))},
	}
	if _, code := postJob(t, ts, queuedReq); code != http.StatusAccepted {
		t.Fatalf("queued submit status = %d", code)
	}

	shedReq := JobRequest{
		Log1: LogInput{Name: "S1", CSV: logCSV(t, permLog(6, 10, "u", 7))},
		Log2: LogInput{Name: "S2", CSV: logCSV(t, permLog(6, 10, "v", 8))},
	}
	body, err := json.Marshal(shedReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response missing Retry-After")
	}
	if st := getStats(t, ts); st.Counters["jobs_shed"] != 1 {
		t.Fatalf("jobs_shed = %d, want 1", st.Counters["jobs_shed"])
	}

	// A duplicate of the running job coalesces instead of being shed.
	if _, code := postJob(t, ts, running); code != http.StatusAccepted {
		t.Fatalf("coalescing submit status = %d, want 202 despite full queue", code)
	}

	close(release)
	if final := pollJob(t, ts, first.ID); final.Status != StatusDone {
		t.Fatalf("running job status = %s (err %q)", final.Status, final.Error)
	}
}

// TestSubmitBodyTooLarge: an oversized submission is refused with 413.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, quietConfig(Config{Workers: 1, MaxBodyBytes: 1 << 10}))
	big := JobRequest{
		Log1: LogInput{Name: "B1", CSV: "case,event\n" + strings.Repeat("c1,AAAAAAAA\n", 1000)},
		Log2: LogInput{Name: "B2", CSV: "case,event\nc1,X\nc1,Y\n"},
	}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "limit") {
		t.Fatalf("error body = %q", eb.Error)
	}
	if st := getStats(t, ts); st.Counters["jobs_rejected"] == 0 {
		t.Fatalf("jobs_rejected = 0 after oversized body")
	}
}

// TestHealthzDuringDrain: once shutdown begins, the liveness probe flips to
// 503 "shutting-down" so load balancers stop routing new work here.
func TestHealthzDuringDrain(t *testing.T) {
	s := mustNew(t, quietConfig(Config{Workers: 1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started, release, restore := blockFirstRound()
	defer restore()

	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Shutdown flips s.closed before draining; poll until the probe sees it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hb map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if hb["status"] != "shutting-down" {
				t.Fatalf("healthz body = %v", hb)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never flipped to 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if final := pollJob(t, ts, view.ID); final.Status != StatusDone {
		t.Fatalf("drained job status = %s", final.Status)
	}
}

// TestShutdownInterruptsLongJob is the acceptance scenario: a job that would
// outlive the drain grace period is interrupted in-engine once the grace
// expires — Shutdown returns promptly (within about one round, not one job)
// and the job ends cancelled with the shutdown diagnostic.
func TestShutdownInterruptsLongJob(t *testing.T) {
	s := mustNew(t, quietConfig(Config{Workers: 1}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Every round stalls 10ms: the job would take far longer than the 30ms
	// grace, but each stall ends at a stop check.
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault { return failpoint.Fault{Delay: 10 * time.Millisecond} })
	defer restore()

	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	// Wait until the job is actually running so the drain has something to
	// interrupt.
	for s.pool.Running() == 0 {
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (grace expired)", err)
	}
	// Grace (30ms) + about one stalled round (10ms) + slack; far below the
	// many-round runtime the job would otherwise need.
	if elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; in-engine interruption did not bite", elapsed)
	}
	final := pollJob(t, ts, view.ID)
	if final.Status != StatusCancelled || !strings.Contains(final.Error, "shutting down") {
		t.Fatalf("interrupted job = %s %q, want shutdown cancellation", final.Status, final.Error)
	}
}

// TestFinishedJobReleasesLogs: the registry keeps up to MaxJobs finished
// jobs, so a terminal job must drop its parsed input logs — whether it
// completed, was cancelled while queued, or was cancelled mid-computation.
// Under -race this also pins that clearing the logs (under the server lock)
// never races the worker reading them.
func TestFinishedJobReleasesLogs(t *testing.T) {
	s, ts := newTestServer(t, quietConfig(Config{Workers: 1}))
	started, release, restore := blockFirstRound()
	defer restore()

	running, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	<-started
	queued, code := postJob(t, ts, slowRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit status = %d", code)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, code := deleteJob(t, ts, id); code != http.StatusOK {
			t.Fatalf("cancel %s status = %d", id, code)
		}
	}
	close(release)
	req := paperRequest(t)
	threshold := 0.2 // a distinct key: computed, not a cache hit
	req.Options.Threshold = &threshold
	done, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	for id, want := range map[string]Status{running.ID: StatusCancelled, queued.ID: StatusCancelled, done.ID: StatusDone} {
		if final := pollJob(t, ts, id); final.Status != want {
			t.Fatalf("%s ended %s (%s), want %s", id, final.Status, final.Error, want)
		}
		j, _ := s.Job(id)
		s.mu.Lock()
		held := j.pair.Log1 != nil || j.pair.Log2 != nil
		s.mu.Unlock()
		if held {
			t.Errorf("%s is %s but still holds its input logs", id, want)
		}
	}
}
