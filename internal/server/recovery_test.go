package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ems"
	"repro/internal/failpoint"
)

// durableConfig is quietConfig plus a data directory and per-round
// checkpoints, the common shape of the recovery tests.
func durableConfig(t *testing.T, dir string) Config {
	t.Helper()
	return quietConfig(Config{Workers: 1, DataDir: dir, CheckpointEvery: 1})
}

// blockAtRound installs a failpoint that blocks forever once an engine
// reaches the given round, closing started the first time it does. The
// blocked goroutine leaks for the remainder of the test binary — that is the
// point: it models a process that died mid-round.
func blockAtRound(round int) (started chan struct{}, restore func()) {
	started = make(chan struct{})
	var once sync.Once
	restore = failpoint.Set(failpoint.EngineRound, func(arg any) failpoint.Fault {
		if arg.(int) >= round {
			once.Do(func() { close(started) })
			select {} // never released: the "crashed" computation
		}
		return failpoint.Fault{}
	})
	return started, restore
}

// waitDone waits for a job to reach a terminal state.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// requireSimBitIdentical compares two results' similarity matrices exactly.
func requireSimBitIdentical(t *testing.T, want, got *ems.Result) {
	t.Helper()
	if len(want.Sim) != len(got.Sim) {
		t.Fatalf("sim length %d, want %d", len(got.Sim), len(want.Sim))
	}
	for i := range want.Sim {
		if math.Float64bits(want.Sim[i]) != math.Float64bits(got.Sim[i]) {
			t.Fatalf("sim[%d] = %v, want %v (not bit-identical)", i, got.Sim[i], want.Sim[i])
		}
	}
}

// slowRequest is a job dense enough to need many iteration rounds.
func slowRequest(t *testing.T) JobRequest {
	t.Helper()
	return JobRequest{
		Log1: LogInput{Name: "R1", CSV: logCSV(t, permLog(12, 30, "a", 1))},
		Log2: LogInput{Name: "R2", CSV: logCSV(t, permLog(12, 30, "b", 2))},
	}
}

// directMatch computes the request's expected result in-process.
func directMatch(t *testing.T, req JobRequest) *ems.Result {
	t.Helper()
	l1, err := ems.ReadCSV(strings.NewReader(req.Log1.CSV), "R1")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ems.ReadCSV(strings.NewReader(req.Log2.CSV), "R2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestKillAndRestartResumesFromCheckpoint is the crash-recovery acceptance
// test: a job is killed mid-round (the process is abandoned, never shut
// down), a second server opens the same data directory, replays the journal,
// resumes the job from its last persisted checkpoint, and produces a result
// bit-identical to an uninterrupted computation.
func TestKillAndRestartResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	req := slowRequest(t)

	started, restore := blockAtRound(4)
	sA := mustNew(t, durableConfig(t, dir))
	// No Shutdown for sA: abandoning it mid-round is the simulated crash.
	jA, err := sA.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the blocking round")
	}
	// Rounds 1-3 completed before the "crash", so with CheckpointEvery=1 at
	// least one checkpoint is on disk.
	if st := sA.Stats(); st.Counters["checkpoints_written"] == 0 {
		t.Fatalf("checkpoints_written = 0 before the crash")
	}
	restore() // the next server must compute unimpeded

	sB := mustNew(t, durableConfig(t, dir))
	t.Cleanup(func() { _ = sB.Shutdown(context.Background()) })
	jB, ok := sB.Job(jA.ID)
	if !ok {
		t.Fatalf("job %s not recovered", jA.ID)
	}
	waitDone(t, jB)
	if jB.Status() != StatusDone {
		t.Fatalf("recovered job ended %s: %s", jB.Status(), jB.View().Error)
	}
	res, _ := jB.Result()
	requireSimBitIdentical(t, directMatch(t, req), res)

	st := sB.Stats()
	if st.Counters["jobs_recovered"] != 1 {
		t.Errorf("jobs_recovered = %d, want 1", st.Counters["jobs_recovered"])
	}
	if st.Counters["jobs_resumed_from_checkpoint"] != 1 {
		t.Errorf("jobs_resumed_from_checkpoint = %d, want 1", st.Counters["jobs_resumed_from_checkpoint"])
	}
	if st.JournalBytes <= 0 {
		t.Errorf("journal_bytes = %d, want > 0", st.JournalBytes)
	}
}

// TestRestartReenqueuesQueuedJobs: jobs still waiting in the queue at the
// crash are re-run after restart, without a checkpoint to resume from.
func TestRestartReenqueuesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	started, restore := blockAtRound(1)
	sA := mustNew(t, durableConfig(t, dir))
	blocked, err := sA.Submit(slowRequest(t)) // occupies the only worker
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sA.Submit(paperRequest(t)) // never picked up before the crash
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the blocking round")
	}
	restore()

	sB := mustNew(t, durableConfig(t, dir))
	t.Cleanup(func() { _ = sB.Shutdown(context.Background()) })
	for _, id := range []string{blocked.ID, queued.ID} {
		j, ok := sB.Job(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("recovered job %s ended %s: %s", id, j.Status(), j.View().Error)
		}
	}
	if st := sB.Stats(); st.Counters["jobs_recovered"] != 2 {
		t.Errorf("jobs_recovered = %d, want 2", st.Counters["jobs_recovered"])
	}
}

// TestRestartServesPersistedResults: finished results survive a clean
// restart — the old job still answers, and an identical new submission is a
// cache hit instead of a recomputation.
func TestRestartServesPersistedResults(t *testing.T) {
	dir := t.TempDir()
	req := paperRequest(t)
	sA := mustNew(t, durableConfig(t, dir))
	jA, err := sA.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jA)
	resA, ok := jA.Result()
	if !ok {
		t.Fatalf("job ended %s", jA.Status())
	}
	if err := sA.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	sB := mustNew(t, durableConfig(t, dir))
	t.Cleanup(func() { _ = sB.Shutdown(context.Background()) })
	jOld, ok := sB.Job(jA.ID)
	if !ok {
		t.Fatalf("finished job %s forgotten after restart", jA.ID)
	}
	resOld, ok := jOld.Result()
	if !ok {
		t.Fatalf("restarted job has no result (status %s)", jOld.Status())
	}
	requireSimBitIdentical(t, resA, resOld)

	jNew, err := sB.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jNew)
	if view := jNew.View(); !view.CacheHit {
		t.Errorf("identical post-restart submission was recomputed, want cache hit")
	}
}

// TestRetryAfterPanicResumesFromCheckpoint: a panicked computation is
// retried with backoff when JobRetries allows, resuming from the last
// checkpoint, and still produces the uninterrupted result bit-for-bit.
func TestRetryAfterPanicResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	cfg.JobRetries = 1
	cfg.RetryBackoff = time.Millisecond
	s := mustNew(t, cfg)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	var once sync.Once
	restore := failpoint.Set(failpoint.EngineRound, func(arg any) failpoint.Fault {
		if arg.(int) >= 3 {
			once.Do(func() { panic("injected transient failure") })
		}
		return failpoint.Fault{}
	})
	defer restore()

	req := slowRequest(t)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("retried job ended %s: %s", j.Status(), j.View().Error)
	}
	res, _ := j.Result()
	requireSimBitIdentical(t, directMatch(t, req), res)
	st := s.Stats()
	if st.Counters["jobs_panicked"] != 1 || st.Counters["jobs_retried"] != 1 {
		t.Errorf("jobs_panicked = %d, jobs_retried = %d, want 1, 1", st.Counters["jobs_panicked"], st.Counters["jobs_retried"])
	}
}

// TestCrashLoopingJobIsAbandoned: a job that was mid-run at three
// consecutive crashes is presumed to be the crash trigger and fails on the
// next boot instead of crash-looping the daemon.
func TestCrashLoopingJobIsAbandoned(t *testing.T) {
	dir := t.TempDir()
	var id string
	for attempt := 1; attempt <= maxCrashAttempts; attempt++ {
		started, restore := blockAtRound(1)
		s := mustNew(t, durableConfig(t, dir))
		if attempt == 1 {
			j, err := s.Submit(slowRequest(t))
			if err != nil {
				t.Fatal(err)
			}
			id = j.ID
		}
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatalf("attempt %d never reached the blocking round", attempt)
		}
		restore()
		// Abandon s: crash number `attempt`.
	}

	s := mustNew(t, durableConfig(t, dir))
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s forgotten", id)
	}
	waitDone(t, j)
	view := j.View()
	if view.Status != StatusFailed || !strings.Contains(view.Error, "abandoned after 3 attempts") {
		t.Fatalf("crash-looping job ended %s (%q), want failed with abandonment diagnostic",
			view.Status, view.Error)
	}
}

// TestStatsExposeDurabilityFields checks the wire names of the durability
// counters on /v1/stats (they are part of the HTTP API, not just the Go
// struct) and that a persisted computation moves them.
func TestStatsExposeDurabilityFields(t *testing.T) {
	_, ts := newTestServer(t, durableConfig(t, t.TempDir()))
	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if final := pollJob(t, ts, view.ID); final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"jobs_recovered", "jobs_resumed_from_checkpoint", "jobs_retried",
		"checkpoints_written", "journal_bytes", "governor",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/v1/stats missing %q", key)
		}
	}
	num := func(key string) int64 {
		t.Helper()
		jn, ok := raw[key].(json.Number)
		if !ok {
			t.Fatalf("/v1/stats %q is %T, want a number", key, raw[key])
		}
		n, err := jn.Int64()
		if err != nil {
			t.Fatalf("/v1/stats %q = %v: %v", key, jn, err)
		}
		return n
	}
	if n := num("checkpoints_written"); n == 0 {
		t.Errorf("checkpoints_written = 0 after a checkpointed job")
	}
	if n := num("journal_bytes"); n <= 0 {
		t.Errorf("journal_bytes = %d, want > 0", n)
	}
}
