package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"testing"

	"repro/ems"
)

// govConfig is the standard governor-enabled test server: a budget big
// enough for any test job, pressured at half.
func govConfig(budget int64) Config {
	return quietConfig(Config{Workers: 2, MemBudget: budget, PressureFraction: 0.5})
}

// TestGovernorAdmissionStates covers the admission state machine directly:
// ok -> pressured -> saturated as cost commits, admit vs shed vs too-large,
// and release draining it back.
func TestGovernorAdmissionStates(t *testing.T) {
	g := newGovernor(1000, 0.5)
	if g == nil {
		t.Fatal("governor disabled for a positive budget")
	}
	if st := g.state(); st != GovOK {
		t.Fatalf("fresh governor state %s, want ok", st)
	}
	if err := g.admit(400); err != nil {
		t.Fatalf("admit within budget: %v", err)
	}
	if st := g.state(); st != GovOK {
		t.Fatalf("state at 40%% %s, want ok", st)
	}
	if err := g.admit(200); err != nil {
		t.Fatalf("admit to 60%%: %v", err)
	}
	if st := g.state(); st != GovPressured {
		t.Fatalf("state at 60%% %s, want pressured", st)
	}
	if err := g.admit(500); !errors.Is(err, ErrSaturated) {
		t.Fatalf("admit past budget: %v, want ErrSaturated", err)
	}
	if err := g.admit(1500); !errors.Is(err, errJobTooLarge) {
		t.Fatalf("admit beyond whole budget: %v, want too-large", err)
	}
	if err := g.admit(400); err != nil {
		t.Fatalf("admit filling exactly: %v", err)
	}
	if st := g.state(); st != GovSaturated {
		t.Fatalf("state at 100%% %s, want saturated", st)
	}
	g.release(600)
	if st := g.state(); st != GovOK {
		t.Fatalf("state after release %s, want ok", st)
	}
	if newGovernor(0, 0.5) != nil || newGovernor(-1, 0.5) != nil {
		t.Error("budget <= 0 must disable the governor")
	}
}

// TestGovernorRejectsTooLargeJob: a job whose predicted footprint exceeds
// the entire budget is rejected up front with the typed estimate — before
// any matrix is allocated — and the daemon stays up.
func TestGovernorRejectsTooLargeJob(t *testing.T) {
	s := mustNew(t, govConfig(64)) // 64 bytes: nothing real fits
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	_, err := s.Submit(paperRequest(t))
	var tle *ems.TooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("submit against a 64-byte budget: got %v, want *ems.TooLargeError", err)
	}
	if tle.BudgetBytes != 64 {
		t.Errorf("error carries budget %d, want 64", tle.BudgetBytes)
	}
	if tle.Predicted.Bytes <= 64 {
		t.Errorf("error carries predicted %d bytes, want > budget", tle.Predicted.Bytes)
	}
	st := s.Stats()
	if st.Counters["jobs_too_large"] != 1 {
		t.Errorf("jobs_too_large = %d, want 1", st.Counters["jobs_too_large"])
	}
	if st.MemBudgetBytes != 64 {
		t.Errorf("mem_budget_bytes = %d, want 64", st.MemBudgetBytes)
	}
	if st.MemCommittedBytes != 0 {
		t.Errorf("mem_committed_bytes = %d after rejection, want 0 (no leaked reservation)", st.MemCommittedBytes)
	}
}

// TestGovernorReleasesOnCompletion: a finished job hands its reservation
// back, so committed bytes return to zero and the state to ok.
func TestGovernorReleasesOnCompletion(t *testing.T) {
	s := mustNew(t, govConfig(1<<30))
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	j, err := s.Submit(paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("job ended %s", j.Status())
	}
	if got := s.gov.committed.Load(); got != 0 {
		t.Errorf("committed = %d after completion, want 0", got)
	}
	if res, _ := j.Result(); res.Degraded != "" {
		t.Errorf("unpressured job ran degraded (%q)", res.Degraded)
	}
}

// TestDegradationLadderUnderPressure is the ladder acceptance test: a
// pressured daemon downgrades fresh jobs instead of queueing them against
// the budget, stamps Result.Degraded, and counts the rung; NoDegrade
// submissions are shed instead; releasing the pressure restores exact
// service.
func TestDegradationLadderUnderPressure(t *testing.T) {
	s := mustNew(t, govConfig(1<<30))
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	// Pin the governor into the pressured band as a long-running admitted
	// fleet would.
	s.gov.forceCommit(s.gov.pressure)

	req := paperRequest(t)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("pressured submit: %v", err)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("degraded job ended %s: %s", j.Status(), j.View().Error)
	}
	res, _ := j.Result()
	if res.Degraded != ems.DegradedFastPath && res.Degraded != ems.DegradedEstimateOnly {
		t.Fatalf("Result.Degraded = %q, want a ladder rung", res.Degraded)
	}
	if st := s.Stats(); st.Counters["jobs_degraded"] != 1 {
		t.Errorf("jobs_degraded = %d, want 1", st.Counters["jobs_degraded"])
	}

	// Opt-out: a NoDegrade job must be shed, not silently approximated.
	reqNo := JobRequest{
		Log1: LogInput{Name: "N1", CSV: logCSV(t, permLog(6, 5, "n", 21))},
		Log2: LogInput{Name: "N2", CSV: logCSV(t, permLog(6, 5, "m", 22))},
	}
	reqNo.Options.NoDegrade = true
	if _, err := s.Submit(reqNo); !errors.Is(err, ErrSaturated) {
		t.Fatalf("NoDegrade submit under pressure: %v, want ErrSaturated", err)
	}

	// Pressure gone: the same options run exact again, undegraded.
	s.gov.release(s.gov.pressure)
	reqAfter := JobRequest{
		Log1: LogInput{Name: "A1", CSV: logCSV(t, permLog(6, 5, "p", 23))},
		Log2: LogInput{Name: "A2", CSV: logCSV(t, permLog(6, 5, "q", 24))},
	}
	jAfter, err := s.Submit(reqAfter)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jAfter)
	resAfter, _ := jAfter.Result()
	if resAfter.Degraded != "" {
		t.Errorf("post-pressure job still degraded (%q)", resAfter.Degraded)
	}
}

// TestGovernorHTTPRejections pins the wire contract: too-large is a 413
// carrying the estimate, saturation is a 503 whose Retry-After derives from
// the queue drain rate (clamped to [1s, 30s]), and /healthz and
// /v1/cluster expose the governor state while still answering 200.
func TestGovernorHTTPRejections(t *testing.T) {
	s, ts := newTestServer(t, govConfig(1<<30))

	// Saturate the node; the degraded variant cannot be admitted either.
	s.gov.forceCommit(s.gov.budget)
	body, _ := json.Marshal(paperRequest(t))
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("Retry-After = %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
	}

	// Liveness and cluster views report the pressure without failing.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hv struct {
		Status   string  `json:"status"`
		Governor string  `json:"governor"`
		Load     float64 `json:"load"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hv.Status != "ok" {
		t.Errorf("saturated /healthz = %d %q, want 200 ok", hresp.StatusCode, hv.Status)
	}
	if hv.Governor != string(GovSaturated) || hv.Load < 1 {
		t.Errorf("/healthz governor=%q load=%v, want saturated >= 1", hv.Governor, hv.Load)
	}
	cresp, err := ts.Client().Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cv ClusterView
	if err := json.NewDecoder(cresp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cv.Governor != string(GovSaturated) {
		t.Errorf("/v1/cluster governor = %q, want saturated", cv.Governor)
	}

	s.gov.release(s.gov.budget)

	// Too large: a fresh tiny-budget server turns the same job into a 413.
	_, tsSmall := newTestServer(t, govConfig(64))
	resp2, err := tsSmall.Client().Post(tsSmall.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("too-large submit status %d, want 413", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") != "" {
		t.Error("413 carries a Retry-After; a permanent rejection must not invite retries")
	}
}

// TestRetryAfterSecondsClamp: the drain-rate estimate respects its clamp on
// an idle server (floor 1s, no division blowups with empty metrics).
func TestRetryAfterSecondsClamp(t *testing.T) {
	s := mustNew(t, quietConfig(Config{Workers: 1}))
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if got := s.retryAfterSeconds(); got < 1 || got > 30 {
		t.Errorf("idle retryAfterSeconds = %d, want within [1, 30]", got)
	}
}
