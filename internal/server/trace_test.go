package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// getTraceView polls GET /v1/traces/{id} on ts until ok accepts the view
// (trace records land asynchronously after the HTTP response, so the first
// reads can be early). localOnly marks the query as peer-relayed, which
// suppresses the fan-out — the view then holds ts's own spans only.
func getTraceView(t *testing.T, ts *httptest.Server, id string, localOnly bool, ok func(TraceView) bool) TraceView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var last TraceView
	seen := false
	for time.Now().Before(deadline) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/traces/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if localOnly {
			req.Header.Set(cluster.ForwardedHeader, "1")
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var v TraceView
			err := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			last, seen = v, true
			if ok == nil || ok(v) {
				return v
			}
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !seen {
		t.Fatalf("trace %s never became queryable on %s", id, ts.URL)
	}
	t.Fatalf("trace %s never satisfied the condition; last view: %d spans on nodes %v",
		id, last.SpanCount, last.Nodes)
	return TraceView{}
}

// spanByName picks the first span with the given name on the given node.
func spanByName(v TraceView, node, name string) (obs.SpanView, bool) {
	for _, sv := range v.Spans {
		if sv.Node == node && sv.Name == name {
			return sv, true
		}
	}
	return obs.SpanView{}, false
}

// submitWithRequestID posts a job with a client-chosen X-Request-ID and
// returns the accepted view.
func submitWithRequestID(t *testing.T, ts *httptest.Server, req JobRequest, reqID string) JobView {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, b)
	}
	if echo := resp.Header.Get(obs.RequestIDHeader); echo != reqID {
		t.Fatalf("request ID echo = %q, want %q", echo, reqID)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// pickSenderAndOwner computes the ring owner of req's content key and a node
// that does not own it, so the forwarding path is exercised for sure.
func pickSenderAndOwner(t *testing.T, srvs []*Server, req JobRequest) (sender int, owner string) {
	t.Helper()
	pj, err := srvs[0].prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	owner = srvs[0].cluster.ring.Owner(pj.key).ID
	for i, s := range srvs {
		if s.cfg.NodeID != owner {
			return i, owner
		}
	}
	t.Fatal("every node owns the key?")
	return 0, ""
}

// TestForwardedSubmissionKeepsRequestID pins the forwarded-trace fix: the
// owner node must execute a forwarded submission under the client's original
// X-Request-ID, not under a fresh ID minted on the hop. The owner's local
// trace store is the witness — it has spans filed under the original ID.
func TestForwardedSubmissionKeepsRequestID(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	req := paperRequest(t)
	sender, owner := pickSenderAndOwner(t, srvs, req)
	ownerIdx := -1
	for i, s := range srvs {
		if s.cfg.NodeID == owner {
			ownerIdx = i
		}
	}

	const reqID = "client-req-4711"
	view := submitWithRequestID(t, ts[sender], req, reqID)
	final := pollJob(t, ts[sender], view.ID)
	if final.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", final.Status, final.Error)
	}
	// The proxied job view reports the trace the owner executed under.
	if final.TraceID != reqID {
		t.Fatalf("owner executed under trace %q, want the client's original %q", final.TraceID, reqID)
	}

	// Ask the owner for its local spans only (the forwarded marker suppresses
	// fan-out): the request root and compute span must be filed under reqID.
	v := getTraceView(t, ts[ownerIdx], reqID, true, func(v TraceView) bool {
		_, ok := spanByName(v, owner, "compute")
		return ok
	})
	for _, sv := range v.Spans {
		if sv.Node != owner {
			t.Fatalf("local-only query returned span %q from node %q", sv.Name, sv.Node)
		}
	}
}

// TestClusterTraceAssembly is the acceptance scenario: a job submitted to
// node A but owned by node C yields, from a node that is neither, a single
// parent-linked span tree with correct per-node attribution — A's request
// root at the top, A's peer hop under it, C's request root under the hop,
// and C's compute span under that.
func TestClusterTraceAssembly(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	req := paperRequest(t)
	sender, owner := pickSenderAndOwner(t, srvs, req)
	senderID := srvs[sender].cfg.NodeID

	// The reader is the third node: not the sender, not the owner. With its
	// store empty for this trace, everything it returns came from fan-out.
	reader := -1
	for i, s := range srvs {
		if i != sender && s.cfg.NodeID != owner {
			reader = i
		}
	}
	if reader < 0 {
		t.Fatal("no third node")
	}

	const reqID = "assembly-trace-0001"
	view := submitWithRequestID(t, ts[sender], req, reqID)
	if final := pollJob(t, ts[sender], view.ID); final.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", final.Status, final.Error)
	}

	v := getTraceView(t, ts[reader], reqID, false, func(v TraceView) bool {
		_, ok := spanByName(v, owner, "compute")
		_, ok2 := spanByName(v, senderID, "peer:"+owner)
		return ok && ok2 && len(v.Partial) == 0
	})

	// Per-node attribution: both halves of the hop are present.
	wantNodes := map[string]bool{senderID: true, owner: true}
	for _, n := range v.Nodes {
		delete(wantNodes, n)
	}
	if len(wantNodes) > 0 {
		t.Fatalf("trace nodes = %v, missing %v", v.Nodes, wantNodes)
	}

	// One tree: the client's request to A is the only parentless span.
	if len(v.Tree) != 1 {
		names := make([]string, 0, len(v.Tree))
		for _, n := range v.Tree {
			names = append(names, n.Node+"/"+n.Name)
		}
		t.Fatalf("assembled %d tree roots (%v), want 1", len(v.Tree), names)
	}
	root := v.Tree[0]
	if root.Name != "request" || root.Node != senderID {
		t.Fatalf("tree root is %s/%s, want %s/request", root.Node, root.Name, senderID)
	}

	// Cross-node parentage: A.request -> A.peer:C -> C.request -> C.compute.
	hop, ok := spanByName(v, senderID, "peer:"+owner)
	if !ok {
		t.Fatal("no peer hop span on the sender")
	}
	if hop.Parent != root.ID {
		t.Fatalf("hop parent = %q, want the sender root %q", hop.Parent, root.ID)
	}
	ownerRoot, ok := spanByName(v, owner, "request")
	if !ok {
		t.Fatal("no request root on the owner")
	}
	if ownerRoot.Parent != hop.ID {
		t.Fatalf("owner root parent = %q, want the hop %q", ownerRoot.Parent, hop.ID)
	}
	compute, ok := spanByName(v, owner, "compute")
	if !ok {
		t.Fatal("no compute span on the owner")
	}
	if compute.Parent != ownerRoot.ID {
		t.Fatalf("compute parent = %q, want the owner root %q", compute.Parent, ownerRoot.ID)
	}
	if compute.Open {
		t.Fatal("compute span still open in the assembled trace")
	}
	if compute.Attrs["rounds"] == "" {
		t.Fatalf("compute span lost its engine attrs: %v", compute.Attrs)
	}

	// The listing endpoint knows the trace on the nodes that stored it.
	resp, err := ts[sender].Client().Get(ts[sender].URL + "/v1/traces?limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range listing.Traces {
		if row.TraceID == reqID {
			found = true
		}
	}
	if !found {
		t.Fatalf("GET /v1/traces does not list %s on the sender", reqID)
	}

	// Satellite: the span-end hook feeds the phase histogram on the owner.
	resp, err = ts[sender].Client().Get(ts[sender].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "emsd_phase_seconds") ||
		!strings.Contains(string(body), `phase="request"`) {
		t.Fatal("/metrics has no emsd_phase_seconds series for the request phase")
	}
}

// TestClusterBatchTraceAssembly: a batch grid fanned across the cluster
// spans onto one trace — pairs executed on remote nodes parent under the
// coordinator's hop spans, and any node assembles the whole thing.
func TestClusterBatchTraceAssembly(t *testing.T) {
	srvs, ts := newTestCluster(t, 3)
	req, _ := gridBatchRequest(5, 2)

	const reqID = "batch-trace-0001"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts[0].URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := ts[0].Client().Do(hr)
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
	if final := pollBatch(t, ts[0], view.ID); final.Status != StatusDone {
		t.Fatalf("batch ended %s (%s)", final.Status, final.Error)
	}

	coord := srvs[0].cfg.NodeID
	v := getTraceView(t, ts[1], reqID, false, func(v TraceView) bool {
		// The 4×4 grid cannot fit on one node of a 3-node ring: wait until at
		// least one remote compute span joined the coordinator's spans.
		if len(v.Nodes) < 2 {
			return false
		}
		for _, sv := range v.Spans {
			if sv.Name == "compute" && sv.Node != coord {
				return true
			}
		}
		return false
	})

	var remoteCompute obs.SpanView
	for _, sv := range v.Spans {
		if sv.Name == "compute" && sv.Node != coord {
			remoteCompute = sv
			break
		}
	}
	// The remote compute span parents under its node's request root, which
	// parents under one of the coordinator's peer hop spans.
	parent, ok := spanByName(v, remoteCompute.Node, "request")
	found := false
	for _, sv := range v.Spans {
		if sv.Node == remoteCompute.Node && sv.Name == "request" && sv.ID == remoteCompute.Parent {
			parent, found = sv, true
			break
		}
	}
	if !ok || !found {
		t.Fatalf("remote compute span on %s has no request root parent", remoteCompute.Node)
	}
	hopFound := false
	for _, sv := range v.Spans {
		if sv.ID == parent.Parent && sv.Node == coord && strings.HasPrefix(sv.Name, "peer:") {
			hopFound = true
			break
		}
	}
	if !hopFound {
		t.Fatalf("remote request root's parent %q is not a coordinator hop span", parent.Parent)
	}
}

// TestTraceQueryUnknownAndSampling: unknown IDs 404 cluster-wide, and a
// node configured to sample nothing stores nothing.
func TestTraceQueryUnknownAndSampling(t *testing.T) {
	s, ts := newTestServer(t, quietConfig(Config{Workers: 1, TraceSample: -1}))
	if _, err := s.Submit(paperRequest(t)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Counters["jobs_completed"] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.traces.Len() != 0 {
		t.Fatalf("trace store holds %d traces with sampling disabled", s.traces.Len())
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/traces/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", resp.StatusCode)
	}
}
