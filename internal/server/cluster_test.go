package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/ems"
	"repro/internal/cluster"
)

// swapHandler lets an httptest listener come up before the Server behind it
// exists: peers need each other's URLs at construction time. Requests that
// race the bootstrap get a 503, which the cluster paths treat as
// unavailable-and-retry.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := sw.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// newTestCluster boots n emsd nodes on loopback listeners, fully meshed.
// Node IDs are "node-a", "node-b", ... — placement over them is
// deterministic, so tests can pick victims by ring position.
func newTestCluster(t *testing.T, n int) ([]*Server, []*httptest.Server) {
	t.Helper()
	handlers := make([]*swapHandler, n)
	ts := make([]*httptest.Server, n)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		ts[i] = httptest.NewServer(handlers[i])
	}
	id := func(i int) string { return fmt.Sprintf("node-%c", 'a'+i) }
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		var peers []cluster.Node
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, cluster.Node{ID: id(j), Addr: ts[j].URL})
			}
		}
		s := mustNew(t, Config{
			Workers: 2,
			NodeID:  id(i),
			Cluster: &ClusterConfig{
				Advertise:     ts[i].URL,
				Peers:         peers,
				ProbeInterval: time.Hour, // request-path reporting only: no probe noise in tests
				PeerTimeout:   5 * time.Second,
				PollInterval:  20 * time.Millisecond,
			},
		})
		h := s.Handler()
		handlers[i].h.Store(&h)
		srvs[i] = s
	}
	t.Cleanup(func() {
		for i := n - 1; i >= 0; i-- {
			ts[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = srvs[i].Shutdown(ctx)
			cancel()
		}
	})
	return srvs, ts
}

// TestClusterForwarding: a submission to a non-owning node is forwarded to
// the ring owner, the returned handle is qualified with the owner's ID, and
// polling plus result fetch through the original node yield the exact bytes
// a local computation produces.
func TestClusterForwarding(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	req := paperRequest(t)

	// Compute where the ring puts this request, then submit via a node that
	// does NOT own it so the forwarding path is exercised for sure.
	pj, err := srvs[0].prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	owner := srvs[0].cluster.ring.Owner(pj.key).ID
	sender := -1
	for i, s := range srvs {
		if s.cfg.NodeID != owner {
			sender = i
			break
		}
	}
	view, code := postJob(t, ts[sender], req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	wantSuffix := "@" + owner
	if !strings.HasSuffix(view.ID, wantSuffix) {
		t.Fatalf("forwarded job ID %q not qualified with owner %q", view.ID, owner)
	}

	// The whole exchange sticks to the sender node: poll + result are
	// proxied to the owner transparently.
	final := pollJob(t, ts[sender], view.ID)
	if final.Status != StatusDone {
		t.Fatalf("job status = %s (%s)", final.Status, final.Error)
	}
	if final.ID != view.ID {
		t.Fatalf("proxied view lost the qualified ID: %q vs %q", final.ID, view.ID)
	}
	got := fetchResult(t, ts[sender], view.ID)

	l1, _, err := req.Log1.resolve("log1")
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := req.Log2.resolve("log2")
	if err != nil {
		t.Fatal(err)
	}
	opts, _, err := JobOptions{}.build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ems.Match(l1, l2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := want.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("forwarded result differs from local match:\n%s\nvs\n%s", a.String(), b.String())
	}

	// The owner executed it; the sender only relayed.
	if st := getStats(t, ts[sender]); st.Counters["jobs_submitted"] != 0 {
		t.Fatalf("sender executed %d jobs itself instead of forwarding", st.Counters["jobs_submitted"])
	}
	// DELETE on the qualified handle routes too (the job is already
	// terminal, so this is just the routing check).
	reqDel, _ := http.NewRequest(http.MethodDelete, ts[sender].URL+"/v1/jobs/"+view.ID, nil)
	resp, err := ts[sender].Client().Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied cancel status = %d", resp.StatusCode)
	}
}

// gridBatchRequest builds a deterministic 4×4 grid over permutation logs of
// n events and the given trace count (bigger = slower pairs).
func gridBatchRequest(n, traces int) (BatchRequest, []ems.PairInput) {
	var req BatchRequest
	var logs1, logs2 []*ems.Log
	for i := 0; i < 4; i++ {
		l := permLog(n, traces, fmt.Sprintf("s%d", i), int64(i+1))
		logs1 = append(logs1, l)
		req.Logs1 = append(req.Logs1, LogInput{Name: l.Name, Traces: logTraces(l)})
	}
	for j := 0; j < 4; j++ {
		l := permLog(n, traces, fmt.Sprintf("t%d", j), int64(100+j))
		logs2 = append(logs2, l)
		req.Logs2 = append(req.Logs2, LogInput{Name: l.Name, Traces: logTraces(l)})
	}
	var pairs []ems.PairInput
	for _, l1 := range logs1 {
		for _, l2 := range logs2 {
			pairs = append(pairs, ems.PairInput{Name: l1.Name + "|" + l2.Name, Log1: l1, Log2: l2})
		}
	}
	return req, pairs
}

func logTraces(l *ems.Log) [][]string {
	out := make([][]string, len(l.Traces))
	for i, tr := range l.Traces {
		out[i] = append([]string(nil), tr...)
	}
	return out
}

func pollBatch(t *testing.T, ts *httptest.Server, id string) BatchView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/batch/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v BatchView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("batch %s did not finish", id)
	return BatchView{}
}

// TestClusterBatchFailover is the acceptance scenario: a 3-node cluster
// serves a 4×4 grid through POST /v1/batch, one worker node is killed
// mid-batch, the coordinator fails its pairs over to the next ring replica,
// and the final grid is byte-for-byte identical to a single-node
// ems.MatchAll over the same pairs.
func TestClusterBatchFailover(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	// Dense permutation logs: each pair takes long enough that the kill
	// below lands while the grid is still in flight.
	req, refPairs := gridBatchRequest(9, 6)

	// Pick the victim deterministically: the owner of the first pair that is
	// not owned by the coordinator (node-a), so at least one pair must fail
	// over and the coordinator itself survives.
	pb, err := srvs[0].prepareBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for _, p := range pb.pairs {
		if owner := srvs[0].cluster.ring.Owner(p.Key).ID; owner != srvs[0].cfg.NodeID {
			for i, s := range srvs {
				if s.cfg.NodeID == owner {
					victim = i
				}
			}
			break
		}
	}
	if victim < 1 {
		t.Fatalf("no pair placed on a peer; placement degenerate (victim=%d)", victim)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts[0].Client().Post(ts[0].URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status = %d (%+v)", resp.StatusCode, view)
	}

	// Kill the victim while the batch is in flight: its listener dies, so
	// every pair placed there fails over to the next replica.
	ts[victim].CloseClientConnections()
	ts[victim].Close()

	final := pollBatch(t, ts[0], view.ID)
	if final.Status != StatusDone {
		t.Fatalf("batch status = %s (error %q)", final.Status, final.Error)
	}
	if final.Pairs != 16 || final.Done != 16 || final.Failed != 0 {
		t.Fatalf("grid incomplete: pairs=%d done=%d failed=%d", final.Pairs, final.Done, final.Failed)
	}
	if final.Failovers == 0 {
		t.Fatal("victim was killed mid-batch but no failover was recorded")
	}

	// Bit-identical to the single-node batch path: the HTTP encoder
	// re-indents embedded JSON, so compare whitespace-compacted bytes —
	// json.Compact copies every number literal verbatim, so any float drift
	// across the wire or across nodes still fails the comparison.
	opts, _, err := JobOptions{}.build()
	if err != nil {
		t.Fatal(err)
	}
	ref := ems.MatchAll(refPairs, 2, false, opts...)
	byName := make(map[string]json.RawMessage, len(final.PairResults))
	for _, pv := range final.PairResults {
		if pv.Status != StatusDone {
			t.Fatalf("pair %q status %s: %s", pv.Name, pv.Status, pv.Error)
		}
		if pv.Node == srvs[victim].cfg.NodeID {
			t.Fatalf("pair %q reports terminal success on the killed node", pv.Name)
		}
		byName[pv.Name] = pv.Result
	}
	for _, out := range ref {
		if out.Err != nil {
			t.Fatalf("reference pair %q failed: %v", out.Name, out.Err)
		}
		var w bytes.Buffer
		if err := out.Result.WriteJSON(&w); err != nil {
			t.Fatal(err)
		}
		got, ok := byName[out.Name]
		if !ok {
			t.Fatalf("pair %q missing from the batch view", out.Name)
		}
		var want, have bytes.Buffer
		if err := json.Compact(&want, w.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&have, []byte(got)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), have.Bytes()) {
			t.Fatalf("pair %q differs from single-node MatchAll:\n%s\nvs\n%s", out.Name, want.String(), have.String())
		}
	}

	// Consensus over 16 successful pairs with the default (majority) quorum.
	if final.Quorum != 9 {
		t.Fatalf("default quorum = %d, want 9 (majority of 16)", final.Quorum)
	}
	if final.ConsensusError != "" {
		// An empty consensus is legitimate (the grids are random), but the
		// computation itself must have run.
		t.Fatalf("consensus failed: %s", final.ConsensusError)
	}

	// The coordinator's /metrics exports per-peer forward and failover
	// counters, and the victim's up-gauge dropped to 0.
	mresp, err := ts[0].Client().Get(ts[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(exp)
	victimID := srvs[victim].cfg.NodeID
	for _, want := range []string{
		fmt.Sprintf(`emsd_peer_failovers_total{peer=%q}`, victimID),
		fmt.Sprintf(`emsd_peer_up{peer=%q} 0`, victimID),
		"emsd_peer_forwards_total{peer=",
		"emsd_batch_pairs_total{outcome=\"done\"} 16",
		"emsd_batch_jobs_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, fmt.Sprintf(`emsd_peer_failovers_total{peer=%q}`, victimID)) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil && v > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("victim failover counter not positive:\n%s", metrics)
	}

	// The progress endpoint carries the batch counters too.
	presp, err := ts[0].Client().Get(ts[0].URL + "/v1/jobs/" + view.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var pv ProgressView
	err = json.NewDecoder(presp.Body).Decode(&pv)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pv.Batch == nil || pv.Batch.Done != 16 {
		t.Fatalf("progress batch view = %+v", pv.Batch)
	}
}

// TestBatchStandalone: POST /v1/batch works without any peers — the
// single-node ring places every pair locally — and explicit pairs mode with
// a custom quorum feeds the consensus.
func TestBatchStandalone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req, refPairs := gridBatchRequest(5, 3)
	req.Quorum = 1

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.ID, "batch-") {
		t.Fatalf("batch job ID = %q", view.ID)
	}
	final := pollBatch(t, ts, view.ID)
	if final.Status != StatusDone || final.Done != len(refPairs) {
		t.Fatalf("batch = %s done=%d/%d (%s)", final.Status, final.Done, len(refPairs), final.Error)
	}
	if final.Quorum != 1 {
		t.Fatalf("quorum = %d, want the requested 1", final.Quorum)
	}
	if len(final.Consensus) == 0 {
		t.Fatal("quorum 1 over successful pairs must yield a non-empty consensus")
	}
	// The batch handle is a job too: it lists, and its ID is pollable.
	if jv := pollJob(t, ts, view.ID); jv.Status != StatusDone {
		t.Fatalf("batch job view status = %s", jv.Status)
	}
}

// TestBatchValidation: malformed batches are rejected with 400 before any
// coordination starts.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatchPairs: 4})
	cases := []string{
		`{}`,
		`{"logs1":[{"traces":[["a"]]}]}`,
		`{"logs1":[{"traces":[["a"]]}],"logs2":[{"traces":[["b"]]}],"pairs":[{"log1":{"traces":[["a"]]},"log2":{"traces":[["b"]]}}]}`,
		`{"logs1":[{"traces":[["a"]]},{"traces":[["c"]]},{"traces":[["d"]]}],"logs2":[{"traces":[["b"]]},{"traces":[["e"]]}]}`, // 6 > MaxBatchPairs
		`{"logs1":[{"traces":[["a"]]}],"logs2":[{"traces":[["b"]]}],"quorum":-1}`,
		`{"logs1":[{"traces":[[]]}],"logs2":[{"traces":[["b"]]}]}`,
	}
	for i, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/batch/batch-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch status = %d, want 404", resp.StatusCode)
	}
}

// TestJobsList: GET /v1/jobs pages newest-first and filters by status.
func TestJobsList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		req := paperRequest(t)
		req.Options.Alpha = ptr(1.0 - float64(i)*0.1) // distinct keys: no coalescing
		view, code := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, code)
		}
		ids = append(ids, view.ID)
		pollJob(t, ts, view.ID)
	}

	var list struct {
		Jobs  []JobView `json:"jobs"`
		Count int       `json:"count"`
	}
	get := func(query string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s status = %d", query, resp.StatusCode)
		}
		list = struct {
			Jobs  []JobView `json:"jobs"`
			Count int       `json:"count"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
	}
	get("")
	if list.Count != 3 || len(list.Jobs) != 3 {
		t.Fatalf("list count = %d, want 3", list.Count)
	}
	if list.Jobs[0].ID != ids[2] || list.Jobs[2].ID != ids[0] {
		t.Fatalf("list not newest-first: %v", list.Jobs)
	}
	get("?limit=2")
	if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[2] {
		t.Fatalf("limited list wrong: %v", list.Jobs)
	}
	get("?status=done")
	if list.Count != 3 {
		t.Fatalf("done filter count = %d", list.Count)
	}
	get("?status=failed")
	if list.Count != 0 {
		t.Fatalf("failed filter count = %d", list.Count)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus status filter = %d, want 400", resp.StatusCode)
	}
}

func ptr[T any](v T) *T { return &v }

// TestClusterIntrospection: /healthz, /v1/version and /v1/cluster expose the
// node identity, role, and live peer view.
func TestClusterIntrospection(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	resp, err := ts[0].Client().Get(ts[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hb["node_id"] != "node-a" || hb["role"] != "peer" || hb["peers"] != 2.0 || hb["peers_up"] != 2.0 {
		t.Fatalf("healthz = %v", hb)
	}

	resp, err = ts[1].Client().Get(ts[1].URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var vb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vb["node_id"] != "node-b" || vb["role"] != "peer" || vb["go_version"] == nil {
		t.Fatalf("version = %v", vb)
	}

	resp, err = ts[2].Client().Get(ts[2].URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cv ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cv.NodeID != "node-c" || len(cv.Nodes) != 3 || len(cv.Peers) != 2 {
		t.Fatalf("cluster view = %+v", cv)
	}
	if cv.Advertise != ts[2].URL {
		t.Fatalf("advertise = %q, want %q", cv.Advertise, ts[2].URL)
	}
	_ = srvs
}
