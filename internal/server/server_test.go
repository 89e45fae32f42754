package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ems"
	"repro/internal/paperexample"
)

func logCSV(t *testing.T, l *ems.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ems.WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func paperRequest(t *testing.T) JobRequest {
	t.Helper()
	return JobRequest{
		Log1: LogInput{Name: "L1", CSV: logCSV(t, paperexample.Log1())},
		Log2: LogInput{Name: "L2", CSV: logCSV(t, paperexample.Log2())},
	}
}

// permLog builds a log of random-permutation traces: dense dependency
// graphs that need many iteration rounds, i.e. a deliberately slow job.
func permLog(n, traces int, name string, seed int64) *ems.Log {
	rng := rand.New(rand.NewSource(seed))
	l := ems.NewLog(name)
	for s := 0; s < traces; s++ {
		p := rng.Perm(n)
		tr := make(ems.Trace, 0, n)
		for _, i := range p {
			tr = append(tr, fmt.Sprintf("%s%02d", name, i))
		}
		l.Append(tr)
	}
	return l
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) *ems.Result {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	res, err := ems.ReadResultJSON(resp.Body)
	if err != nil {
		t.Fatalf("parse result: %v", err)
	}
	return res
}

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func TestSubmitPollResultMatchesDirectMatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	view, code := postJob(t, ts, paperRequest(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	final := pollJob(t, ts, view.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	got := fetchResult(t, ts, view.ID)
	want, err := ems.Match(paperexample.Log1(), paperexample.Log2())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sim) != len(want.Sim) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(got.Sim), len(want.Sim))
	}
	for i := range want.Sim {
		if math.Abs(got.Sim[i]-want.Sim[i]) > 1e-12 {
			t.Fatalf("similarity differs at %d", i)
		}
	}
	if len(got.Mapping) != len(want.Mapping) {
		t.Fatalf("mapping sizes differ: %d vs %d", len(got.Mapping), len(want.Mapping))
	}
}

// TestConcurrentDuplicateSubmissions is the acceptance scenario: two
// concurrent submissions of the same pair yield identical results with
// exactly one computation; the second is a cache hit visible in /v1/stats.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := paperRequest(t)
	const n = 2
	views := make([]JobView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, code := postJob(t, ts, req)
			if code != http.StatusAccepted {
				t.Errorf("submit %d status = %d", i, code)
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	results := make([]*ems.Result, n)
	for i, v := range views {
		final := pollJob(t, ts, v.ID)
		if final.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", v.ID, final.Status, final.Error)
		}
		results[i] = fetchResult(t, ts, v.ID)
	}
	for i := range results[0].Sim {
		if results[0].Sim[i] != results[1].Sim[i] {
			t.Fatalf("duplicate submissions disagree at %d", i)
		}
	}
	st := getStats(t, ts)
	if st.Counters["cache_misses"] != 1 {
		t.Errorf("cache misses = %d, want exactly 1 computation", st.Counters["cache_misses"])
	}
	if st.Counters["cache_hits"] != 1 {
		t.Errorf("cache hits = %d, want 1", st.Counters["cache_hits"])
	}
	if st.Counters["jobs_submitted"] != 2 || st.Counters["jobs_completed"] != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.CacheHitRate)
	}
}

func TestSequentialResubmissionHitsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := paperRequest(t)
	v1, _ := postJob(t, ts, req)
	if f := pollJob(t, ts, v1.ID); f.Status != StatusDone {
		t.Fatalf("first job: %s", f.Status)
	}
	v2, _ := postJob(t, ts, req)
	final := pollJob(t, ts, v2.ID)
	if final.Status != StatusDone || !final.CacheHit {
		t.Fatalf("resubmission view = %+v, want done cache hit", final)
	}
	// Different options must miss: the key is content + options.
	alpha := 0.9
	req.Options.Alpha = &alpha
	v3, _ := postJob(t, ts, req)
	if f := pollJob(t, ts, v3.ID); f.CacheHit {
		t.Errorf("different options served from cache")
	}
	st := getStats(t, ts)
	if st.Counters["cache_misses"] != 2 || st.Counters["cache_hits"] != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheSize != 2 {
		t.Errorf("cache size = %d, want 2", st.CacheSize)
	}
}

func TestCompositeJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := paperRequest(t)
	req.Options.Composite = true
	v, _ := postJob(t, ts, req)
	if f := pollJob(t, ts, v.ID); f.Status != StatusDone {
		t.Fatalf("composite job: %s (%s)", f.Status, f.Error)
	}
	res := fetchResult(t, ts, v.ID)
	if len(res.Composites1) != 1 {
		t.Errorf("composite job missed the {C,D} merge: %v", res.Composites1)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "not json"},
		{"missing logs", `{}`},
		{"two sources", `{"log1":{"csv":"case,event\nc,a\n","traces":[["a"]]},"log2":{"traces":[["b"]]}}`},
		{"empty trace", `{"log1":{"traces":[[]]},"log2":{"traces":[["b"]]}}`},
		{"bad csv", `{"log1":{"csv":"no header\n"},"log2":{"traces":[["b"]]}}`},
		{"path disabled", `{"log1":{"path":"/etc/hostname"},"log2":{"traces":[["b"]]}}`},
		{"bad alpha", `{"log1":{"traces":[["a"]]},"log2":{"traces":[["b"]]},"options":{"alpha":7}}`},
		{"unknown field", `{"log1":{"traces":[["a"]]},"log2":{"traces":[["b"]]},"bogus":1}`},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
	st := getStats(t, ts)
	if st.Counters["jobs_rejected"] != uint64(len(cases)) {
		t.Errorf("rejected = %d, want %d", st.Counters["jobs_rejected"], len(cases))
	}
	if st.Counters["jobs_submitted"] != 0 {
		t.Errorf("bad requests counted as submissions: %d", st.Counters["jobs_submitted"])
	}
}

func TestUnknownJobAndPendingResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
	// A slow job's result endpoint answers 409 while it runs.
	slow := JobRequest{
		Log1: LogInput{Traces: tracesOf(permLog(40, 40, "a", 1))},
		Log2: LogInput{Traces: tracesOf(permLog(40, 40, "b", 2))},
	}
	v, code := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit slow: %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("pending result status = %d, want 409", resp.StatusCode)
	}
	if f := pollJob(t, ts, v.ID); f.Status != StatusDone {
		t.Fatalf("slow job ended %s", f.Status)
	}
}

func tracesOf(l *ems.Log) [][]string {
	out := make([][]string, 0, l.Len())
	for _, t := range l.Traces {
		out = append(out, append([]string(nil), t...))
	}
	return out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
	if body["node_id"] != "emsd" || body["role"] != "standalone" {
		t.Errorf("healthz cluster identity = %v", body)
	}
}

// TestGracefulShutdownCancelsQueued is the acceptance scenario: shutdown
// while jobs are queued completes them as cancelled — no hang, no panic —
// while the running job drains.
func TestGracefulShutdownCancelsQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// One slow job occupies the single worker; distinct fast jobs queue
	// behind it. Exact mode keeps it slow enough that the queued jobs are
	// still pending when shutdown fires (the default fast path would drain
	// them before the race).
	slow := JobRequest{
		Log1:    LogInput{Traces: tracesOf(permLog(60, 60, "a", 1))},
		Log2:    LogInput{Traces: tracesOf(permLog(60, 60, "b", 2))},
		Options: JobOptions{Exact: true},
	}
	sv, code := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit slow: %d", code)
	}
	queued := make([]JobView, 0, 3)
	for i := 0; i < 3; i++ {
		req := paperRequest(t)
		d := 0.001 * float64(i+1) // distinct options → distinct jobs
		req.Options.Delta = &d
		v, code := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit queued %d: %d", i, code)
		}
		queued = append(queued, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The slow job was running: it drained to done. The queued ones were
	// cancelled (unless the worker stole one before shutdown won the race —
	// done is then also legal — but at least one must be cancelled, and
	// none may be left hanging).
	if f := pollJob(t, ts, sv.ID); f.Status != StatusDone {
		t.Errorf("running job ended %s, want done (drain)", f.Status)
	}
	cancelled := 0
	for _, v := range queued {
		f := pollJob(t, ts, v.ID)
		switch f.Status {
		case StatusCancelled:
			cancelled++
		case StatusDone:
		default:
			t.Errorf("queued job %s ended %s", v.ID, f.Status)
		}
	}
	if cancelled == 0 {
		t.Errorf("no queued job was cancelled by shutdown")
	}
	// Submissions after shutdown are refused with 503.
	_, code = postJob(t, ts, paperRequest(t))
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status = %d, want 503", code)
	}
	st := getStats(t, ts)
	if st.Counters["jobs_cancelled"] == 0 {
		t.Errorf("stats cancelled = 0 after shutdown: %+v", st)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("gauges non-zero after drain: %+v", st)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestAllowPathsReadsFile(t *testing.T) {
	dir := t.TempDir()
	p1 := dir + "/l1.csv"
	p2 := dir + "/l2.csv"
	writeLogFile(t, p1, paperexample.Log1())
	writeLogFile(t, p2, paperexample.Log2())
	_, ts := newTestServer(t, Config{Workers: 1, AllowPaths: true})
	req := JobRequest{Log1: LogInput{Path: p1}, Log2: LogInput{Path: p2}}
	v, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit by path: %d", code)
	}
	if f := pollJob(t, ts, v.ID); f.Status != StatusDone {
		t.Fatalf("path job ended %s: %s", f.Status, f.Error)
	}
	// The content key is transport-independent: the same pair inline is a
	// cache hit.
	v2, _ := postJob(t, ts, paperRequest(t))
	if f := pollJob(t, ts, v2.ID); !f.CacheHit {
		t.Errorf("inline resubmission of path-loaded pair missed the cache")
	}
	// Missing file is the client's fault.
	bad := JobRequest{Log1: LogInput{Path: dir + "/missing.csv"}, Log2: LogInput{Path: p2}}
	if _, code := postJob(t, ts, bad); code != http.StatusBadRequest {
		t.Errorf("missing path status = %d, want 400", code)
	}
}

func writeLogFile(t *testing.T, path string, l *ems.Log) {
	t.Helper()
	var buf bytes.Buffer
	if err := ems.WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWorkersBudget checks the pool-composition defaults: the per-job
// engine budget derives from GOMAXPROCS/Workers so daemon and engine
// parallelism compose instead of multiplying.
func TestEngineWorkersBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	s := mustNew(t, Config{Workers: procs})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if s.cfg.EngineWorkers != 1 {
		t.Errorf("EngineWorkers = %d with a saturated job pool, want 1", s.cfg.EngineWorkers)
	}
	s2 := mustNew(t, Config{Workers: 1})
	t.Cleanup(func() { _ = s2.Shutdown(context.Background()) })
	if s2.cfg.EngineWorkers != procs {
		t.Errorf("EngineWorkers = %d with a single-job pool, want %d", s2.cfg.EngineWorkers, procs)
	}
	s3 := mustNew(t, Config{Workers: 2, EngineWorkers: -1})
	t.Cleanup(func() { _ = s3.Shutdown(context.Background()) })
	if s3.cfg.EngineWorkers != 1 {
		t.Errorf("EngineWorkers = %d with forced serial, want 1", s3.cfg.EngineWorkers)
	}
}

// TestEngineWorkersResultsIdentical runs the same job on a serial-engine and
// a parallel-engine server; the results must match exactly, and the second
// server's cache must still be keyed identically (engine workers are not
// part of the content key).
func TestEngineWorkersResultsIdentical(t *testing.T) {
	_, tsSerial := newTestServer(t, Config{Workers: 1, EngineWorkers: -1})
	_, tsPar := newTestServer(t, Config{Workers: 1, EngineWorkers: 4})
	req := JobRequest{
		Log1: LogInput{Name: "L1", CSV: logCSV(t, permLog(12, 30, "a", 1))},
		Log2: LogInput{Name: "L2", CSV: logCSV(t, permLog(12, 30, "b", 2))},
	}
	vs, _ := postJob(t, tsSerial, req)
	vp, _ := postJob(t, tsPar, req)
	if f := pollJob(t, tsSerial, vs.ID); f.Status != StatusDone {
		t.Fatalf("serial job ended %s: %s", f.Status, f.Error)
	}
	if f := pollJob(t, tsPar, vp.ID); f.Status != StatusDone {
		t.Fatalf("parallel job ended %s: %s", f.Status, f.Error)
	}
	rs := fetchResult(t, tsSerial, vs.ID)
	rp := fetchResult(t, tsPar, vp.ID)
	if len(rs.Sim) != len(rp.Sim) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(rs.Sim), len(rp.Sim))
	}
	for i := range rs.Sim {
		if rs.Sim[i] != rp.Sim[i] {
			t.Fatalf("engine workers changed similarity at %d: %x vs %x", i, rs.Sim[i], rp.Sim[i])
		}
	}
	if rs.Evaluations != rp.Evaluations || rs.Rounds != rp.Rounds {
		t.Errorf("counters differ: evals %d/%d rounds %d/%d", rs.Evaluations, rp.Evaluations, rs.Rounds, rp.Rounds)
	}
}
