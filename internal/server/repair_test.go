package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/repair"
)

// dirtyCSV builds the two-column CSV of a log whose traces carry every
// defect class the repair pipeline handles, including one trace that is
// beyond repair under an imputation budget of 1.
func dirtyCSV() string {
	clean := "a c b x e y"
	traces := []string{
		clean, clean, clean, clean, clean, clean, clean, clean,
		"a a c b x e y", // duplicate
		"c a b x e y",   // swap
		"a b x e y",     // dropped c
		"a b x y",       // dropped c and e: beyond a budget of 1
	}
	var b strings.Builder
	b.WriteString("case,event\n")
	for i, tr := range traces {
		for _, e := range strings.Fields(tr) {
			b.WriteString("t")
			b.WriteByte(byte('a' + i))
			b.WriteString("," + e + "\n")
		}
	}
	return b.String()
}

// cleanCSV is the same process recorded without defects.
func cleanCSV() string {
	var b strings.Builder
	b.WriteString("case,event\n")
	for i := 0; i < 10; i++ {
		for _, e := range strings.Fields("a c b x e y") {
			b.WriteString("c")
			b.WriteByte(byte('a' + i))
			b.WriteString("," + e + "\n")
		}
	}
	return b.String()
}

func TestJobWithRepairQuarantinesCorruptedLog(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := JobRequest{
		Log1:    LogInput{CSV: cleanCSV()},
		Log2:    LogInput{CSV: dirtyCSV()},
		Options: JobOptions{Repair: &RepairJobOptions{ImputeMax: 1}},
	}
	view, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if final := pollJob(t, ts, view.ID); final.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", final.Status, final.Error)
	}
	res := fetchResult(t, ts, view.ID)
	if res.Repair1 == nil || res.Repair2 == nil {
		t.Fatal("result lost its repair reports")
	}
	r2 := res.Repair2
	if r2.EventsDropped == 0 || r2.EventsReordered == 0 || r2.EventsImputed == 0 {
		t.Fatalf("dirty log repair incomplete: %+v", r2)
	}
	if r2.TracesQuarantined != 1 || len(r2.Quarantined) != 1 {
		t.Fatalf("quarantine report not populated: %+v", r2)
	}
	if q := r2.Quarantined[0]; q.Reason != repair.ReasonBeyondRepair {
		t.Fatalf("quarantine reason = %q, want %q", q.Reason, repair.ReasonBeyondRepair)
	}
	if r2.TracesIn != r2.TracesOut+r2.TracesQuarantined {
		t.Fatalf("repair accounting broken: %+v", r2)
	}

	st := getStats(t, ts)
	if st.Counters["jobs_repaired"] != 1 {
		t.Errorf("jobs_repaired = %d, want 1", st.Counters["jobs_repaired"])
	}
	if st.Counters["repair_events_dropped"] == 0 || st.Counters["repair_events_reordered"] == 0 || st.Counters["repair_events_imputed"] == 0 {
		t.Errorf("repair counters not recorded: %+v", st)
	}
	if st.Counters["repair_traces_quarantined"] != 1 {
		t.Errorf("repair_traces_quarantined = %d, want 1", st.Counters["repair_traces_quarantined"])
	}

	// An identical resubmission must coalesce or hit the cache, not recompute.
	again, code := postJob(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d", code)
	}
	if final := pollJob(t, ts, again.ID); final.Status != StatusDone || !final.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", final)
	}

	// Metrics surface the repair counter families.
	if s.Registry() == nil {
		t.Fatal("no registry")
	}
	body := getMetricsBody(t, ts)
	for _, want := range []string{
		"emsd_jobs_repaired_total 1",
		"emsd_repair_traces_quarantined_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func getMetricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRepairJoinsCacheKey(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	base := JobRequest{
		Log1: LogInput{CSV: cleanCSV()},
		Log2: LogInput{CSV: dirtyCSV()},
	}
	plain, err := s.prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	withRepair := base
	withRepair.Options.Repair = &RepairJobOptions{}
	repaired, err := s.prepare(withRepair)
	if err != nil {
		t.Fatal(err)
	}
	if plain.key == repaired.key {
		t.Fatal("repair on/off share a cache key")
	}
	tuned := base
	tuned.Options.Repair = &RepairJobOptions{ImputeMax: 1}
	tunedPJ, err := s.prepare(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if tunedPJ.key == repaired.key {
		t.Fatal("different repair knobs share a cache key")
	}
	// Invalid repair knobs fail the submission up front.
	bad := base
	bad.Options.Repair = &RepairJobOptions{ImputeMinPath: 2}
	if _, err := s.prepare(bad); err == nil {
		t.Fatal("invalid repair options accepted")
	}
}

func TestLenientIngestionSkipsMalformedRows(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := "case,event\nta,a\nragged row with no comma\nta,b\ntb,a\ntb,b\n"
	strict := JobRequest{
		Log1: LogInput{CSV: bad},
		Log2: LogInput{CSV: bad},
	}
	if _, code := postJob(t, ts, strict); code != http.StatusBadRequest {
		t.Fatalf("strict submission of malformed CSV = %d, want 400", code)
	}
	lenient := JobRequest{
		Log1: LogInput{CSV: bad, Lenient: true},
		Log2: LogInput{CSV: bad, Lenient: true},
	}
	view, code := postJob(t, ts, lenient)
	if code != http.StatusAccepted {
		t.Fatalf("lenient submission = %d, want 202", code)
	}
	if final := pollJob(t, ts, view.ID); final.Status != StatusDone {
		t.Fatalf("lenient job ended %s (%s)", final.Status, final.Error)
	}
	if st := getStats(t, ts); st.Counters["ingest_records_skipped"] != 2 {
		t.Errorf("ingest_records_skipped = %d, want 2 (one bad row per log)", st.Counters["ingest_records_skipped"])
	}
}
