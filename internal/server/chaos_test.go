package server

import (
	"bufio"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/failpoint"
)

// loadReplaySchedule loads the committed chaos schedule `make chaos-test`
// replays. Keeping it as a testdata file (rather than an inline literal) is
// the point: the same bytes are parsed on every run, so a schedule change is
// a reviewed diff, not a silent drift of the fault sequence.
func loadReplaySchedule(t *testing.T) *chaos.Schedule {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "chaos_replay.json"))
	if err != nil {
		t.Fatalf("read committed schedule: %v", err)
	}
	sched, err := chaos.ParseSchedule(data)
	if err != nil {
		t.Fatalf("parse committed schedule: %v", err)
	}
	return sched
}

// scrapeMetric fetches one counter/gauge value off the /metrics exposition.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			t.Fatalf("unparseable %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// TestChaosKillRestartUnderSchedule is the chaos acceptance suite: under the
// committed seeded schedule (slow-round jitter plus one torn WAL write) a
// daemon is killed mid-computation and restarted on the same data directory.
// Invariants, regardless of where the faults land:
//
//   - no acknowledged job is lost: everything Submit accepted before the
//     crash reaches a terminal state after the restart;
//   - the resumed result is bit-identical to an uninterrupted run;
//   - the torn write fails exactly the Submit it hits — with an error, not
//     silently — and the daemon keeps accepting work afterwards;
//   - /metrics and /v1/stats agree after recovery.
func TestChaosKillRestartUnderSchedule(t *testing.T) {
	sched := loadReplaySchedule(t)
	restoreChaos, err := sched.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	defer restoreChaos()

	dir := t.TempDir()
	reqMain := slowRequest(t)

	// blockAtRound shadows the schedule's engine.round rule for phase A (the
	// failpoint registry holds one hook at a time); restoring it below
	// re-arms the chaos delays for the recovery phase.
	started, restoreBlock := blockAtRound(4)
	sA := mustNew(t, durableConfig(t, dir))
	// No Shutdown for sA: abandoning it mid-round is the simulated kill.
	jMain, err := sA.Submit(reqMain)
	if err != nil {
		t.Fatalf("submit under chaos: %v", err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the blocking round")
	}
	if st := sA.Stats(); st.Counters["checkpoints_written"] == 0 {
		t.Fatalf("checkpoints_written = 0 before the kill")
	}

	// WAL writes so far: submit(jMain)=1, start(jMain)=2. The schedule's
	// torn rule (after 2, count 1) therefore hits the next submit: it must
	// fail loudly — the client knows the job was never accepted — and leave
	// the WAL repairable, not wedged.
	reqTorn := JobRequest{
		Log1: LogInput{Name: "T1", CSV: logCSV(t, permLog(5, 4, "t", 11))},
		Log2: LogInput{Name: "T2", CSV: logCSV(t, permLog(5, 4, "u", 12))},
	}
	if _, err := sA.Submit(reqTorn); err == nil {
		t.Fatal("submit during the injected torn write succeeded, want persistence error")
	} else if !strings.Contains(err.Error(), "persist") {
		t.Fatalf("torn-write submit failed with %v, want a persistence error", err)
	}

	// The daemon keeps serving: the next append repairs the torn tail and
	// this job is durably queued (the single worker is still blocked).
	reqQueued := paperRequest(t)
	jQueued, err := sA.Submit(reqQueued)
	if err != nil {
		t.Fatalf("submit after torn-tail repair: %v", err)
	}

	restoreBlock() // re-arms the chaos engine delays for the restart
	// Abandon sA: the kill.

	sB := mustNew(t, durableConfig(t, dir))
	t.Cleanup(func() { _ = sB.Shutdown(context.Background()) })
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)

	// Invariant 1: both acknowledged jobs survive to a terminal state.
	for _, id := range []string{jMain.ID, jQueued.ID} {
		j, ok := sB.Job(id)
		if !ok {
			t.Fatalf("acknowledged job %s lost across the kill", id)
		}
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("recovered job %s ended %s: %s", id, j.Status(), j.View().Error)
		}
	}

	// Invariant 2: resumed results are bit-identical to uninterrupted runs,
	// chaos delays and all.
	resMain, _ := mustJob(t, sB, jMain.ID).Result()
	requireSimBitIdentical(t, directMatch(t, reqMain), resMain)
	resQueued, _ := mustJob(t, sB, jQueued.ID).Result()
	requireSimBitIdentical(t, directMatch(t, reqQueued), resQueued)

	// Invariant 3: recovery accounting, then /metrics agreeing with /v1/stats.
	st := sB.Stats()
	if st.Counters["jobs_recovered"] != 2 {
		t.Errorf("jobs_recovered = %d, want 2", st.Counters["jobs_recovered"])
	}
	if st.Counters["jobs_resumed_from_checkpoint"] != 1 {
		t.Errorf("jobs_resumed_from_checkpoint = %d, want 1", st.Counters["jobs_resumed_from_checkpoint"])
	}
	for name, want := range map[string]uint64{
		"emsd_jobs_recovered_total": st.Counters["jobs_recovered"],
		"emsd_jobs_resumed_total":   st.Counters["jobs_resumed_from_checkpoint"],
		"emsd_jobs_completed_total": st.Counters["jobs_completed"],
		"emsd_jobs_failed_total":    st.Counters["jobs_failed"],
	} {
		if got := scrapeMetric(t, tsB, name); got != float64(want) {
			t.Errorf("%s = %v on /metrics, but /v1/stats says %d", name, got, want)
		}
	}

	// The restarted daemon still takes new work under the live schedule.
	jNew, err := sB.Submit(reqMain)
	if err != nil {
		t.Fatalf("post-restart submit: %v", err)
	}
	waitDone(t, jNew)
	if jNew.Status() != StatusDone {
		t.Fatalf("post-restart job ended %s: %s", jNew.Status(), jNew.View().Error)
	}
}

func mustJob(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return j
}

// TestChaosJournalEnospcFailsJobNotDaemon: an injected ENOSPC on the very
// first WAL append fails that submission with the injected error, but the
// journal repairs itself and the daemon serves the next job to completion.
func TestChaosJournalEnospcFailsJobNotDaemon(t *testing.T) {
	sched := &chaos.Schedule{
		Seed:  7,
		Rules: []chaos.Rule{{Point: failpoint.JournalWrite, Fault: "enospc", Count: 1}},
	}
	restore, err := sched.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	defer restore()

	s := mustNew(t, durableConfig(t, t.TempDir()))
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	if _, err := s.Submit(paperRequest(t)); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("submit during ENOSPC: got %v, want the injected fault surfaced", err)
	}

	req := slowRequest(t)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit after ENOSPC: %v (journal wedged?)", err)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("post-ENOSPC job ended %s: %s", j.Status(), j.View().Error)
	}
	res, _ := j.Result()
	requireSimBitIdentical(t, directMatch(t, req), res)
	if st := s.Stats(); st.JournalBytes <= 0 {
		t.Errorf("journal_bytes = %d after a successful append, want > 0", st.JournalBytes)
	}
}
