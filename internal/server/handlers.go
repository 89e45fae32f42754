package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/ems"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// Handler returns the HTTP API:
//
//	POST   /v1/jobs               submit a match job (forwarded to the ring owner in a cluster)
//	GET    /v1/jobs               list jobs (newest first; ?status=, ?limit=)
//	GET    /v1/jobs/{id}          poll job status
//	GET    /v1/jobs/{id}/result   fetch the finished result
//	GET    /v1/jobs/{id}/progress live engine progress and span timeline
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	POST   /v1/batch              submit a grid of pairs fanned across the cluster
//	GET    /v1/batch/{id}         per-pair results and consensus of a batch
//	GET    /v1/traces             recent stored traces on this node (?limit=)
//	GET    /v1/traces/{id}        cluster-assembled span tree of one trace
//	GET    /v1/cluster            ring membership and peer health
//	GET    /v1/stats              service metrics (JSON)
//	GET    /v1/version            build identity of the binary
//	GET    /metrics               Prometheus exposition
//	GET    /healthz               liveness probe (503 while shutting down)
//
// Every route runs behind the trace middleware (X-Request-ID in, echoed
// back out) and records per-route request counts, latency histograms, and
// an in-flight gauge into the /metrics registry.
//
// In a cluster, job handles returned for forwarded submissions are
// qualified ("job-000007@node-b"); GET/DELETE on a qualified ID from any
// node is relayed to the owning node, so a client may stick to one node for
// its whole exchange.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.Handler) {
		mux.Handle(pattern, s.obs.http.Wrap(route, h))
	}
	handle("GET /healthz", "/healthz", http.HandlerFunc(s.handleHealth))
	handle("GET /metrics", "/metrics", s.obs.reg)
	handle("GET /v1/stats", "/v1/stats", http.HandlerFunc(s.handleStats))
	handle("GET /v1/version", "/v1/version", http.HandlerFunc(s.handleVersion))
	handle("GET /v1/cluster", "/v1/cluster", http.HandlerFunc(s.handleCluster))
	handle("POST /v1/jobs", "/v1/jobs", http.HandlerFunc(s.handleSubmit))
	handle("GET /v1/jobs", "/v1/jobs", http.HandlerFunc(s.handleJobs))
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", http.HandlerFunc(s.handleJob))
	handle("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", http.HandlerFunc(s.handleResult))
	handle("GET /v1/jobs/{id}/progress", "/v1/jobs/{id}/progress", http.HandlerFunc(s.handleProgress))
	handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", http.HandlerFunc(s.handleCancel))
	handle("POST /v1/batch", "/v1/batch", http.HandlerFunc(s.handleBatchSubmit))
	handle("GET /v1/batch/{id}", "/v1/batch/{id}", http.HandlerFunc(s.handleBatch))
	handle("GET /v1/traces", "/v1/traces", http.HandlerFunc(s.handleTraces))
	handle("GET /v1/traces/{id}", "/v1/traces/{id}", http.HandlerFunc(s.handleTrace))
	return obs.TraceMiddlewareWith(mux, obs.TraceConfig{
		Node:         s.cfg.NodeID,
		OnSpanEnd:    s.observeSpanEnd,
		OnRequestEnd: s.recordTrace,
	})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// healthView is the /healthz body; the cluster fields let an operator (or a
// load balancer) see a node's identity and its view of the peers in one
// probe.
type healthView struct {
	Status  string `json:"status"`
	NodeID  string `json:"node_id"`
	Role    string `json:"role"`
	Peers   int    `json:"peers"`
	PeersUp int    `json:"peers_up"`
	// Governor is the memory governor's state ("ok", "pressured",
	// "saturated"); Load is the committed fraction of the budget. A
	// saturated node still answers 200 — it is alive, just busy — so
	// schedulers read the field rather than the status code.
	Governor string  `json:"governor"`
	Load     float64 `json:"load"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	s.mu.Lock()
	if s.closed {
		// Draining: load balancers should stop routing here while in-flight
		// jobs finish.
		status, code = "shutting-down", http.StatusServiceUnavailable
	}
	s.mu.Unlock()
	writeJSON(w, code, healthView{
		Status: status, NodeID: s.cfg.NodeID, Role: s.cluster.role(),
		Peers: len(s.cluster.clients), PeersUp: s.cluster.peersUp(),
		Governor: string(s.governorState()), Load: s.governorLoad(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// versionView embeds the build identity plus the node's cluster identity.
type versionView struct {
	VersionInfo
	NodeID  string `json:"node_id"`
	Role    string `json:"role"`
	Peers   int    `json:"peers"`
	PeersUp int    `json:"peers_up"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionView{
		VersionInfo: Version(), NodeID: s.cfg.NodeID, Role: s.cluster.role(),
		Peers: len(s.cluster.clients), PeersUp: s.cluster.peersUp(),
	})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterInfo())
}

// routedJob resolves the {id} path value of a job route: an ID qualified
// with a peer's node ID is relayed to that peer (handled=true, response
// already written); otherwise the local ID is returned. IDs qualified with
// the local node's own ID are served locally, so a handle survives being
// passed back to its owner.
func (s *Server) routedJob(w http.ResponseWriter, r *http.Request, suffix string) (string, bool) {
	id, nodeID := cluster.SplitJobID(r.PathValue("id"))
	if nodeID == "" || nodeID == s.cluster.self.ID {
		return id, false
	}
	s.proxyJob(w, r, nodeID, id, suffix)
	return "", true
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id, handled := s.routedJob(w, r, "/progress")
	if handled {
		return
	}
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job.Progress())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader (unlike a plain LimitReader) yields a typed error on
	// overrun and closes the connection, so oversized uploads get a clean
	// 413 instead of being silently truncated into a JSON parse error. The
	// body is read whole: a forwarded submission must relay the client's
	// exact bytes so the owner journals what the client sent.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.metrics.inc(jobsRejected)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request body: %v", err)})
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.inc(jobsRejected)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	tr := s.traceOrNew(r.Context())
	endParse := tr.Span("parse")
	pj, err := s.prepare(req)
	endParse()
	if err != nil {
		s.metrics.inc(jobsRejected)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// Cluster placement: a fresh client submission whose content key hashes
	// to a peer is forwarded there. A request already forwarded once always
	// executes here — two nodes briefly disagreeing about ownership must not
	// bounce a job around the ring.
	if s.cluster.clustered() && r.Header.Get(cluster.ForwardedHeader) == "" {
		if s.forwardSubmit(w, r, body, pj.key) {
			return
		}
	}
	job, err := s.submitPrepared(req, tr, pj)
	var tle *ems.TooLargeError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job.View())
	case errors.As(err, &tle):
		// The job can never fit the budget: permanent, so 413 not 503 — no
		// Retry-After, retrying the same job would only be rejected again.
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: tle.Error()})
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrSaturated):
		// Transient overload: hint when to come back from the queue's actual
		// drain rate instead of a fixed second.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case IsRequestError(err):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// handleJobs lists recent jobs, newest first. ?status= filters by lifecycle
// state, ?limit= bounds the page (default 100, capped at 1000).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := Status(q.Get("status"))
	switch status {
	case "", StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
	default:
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("unknown status %q (want queued, running, done, failed or cancelled)", status)})
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("limit must be a positive integer, got %q", v)})
			return
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	views := s.JobViews(status, limit)
	writeJSON(w, http.StatusOK, struct {
		Jobs  []JobView `json:"jobs"`
		Count int       `json:"count"`
	}{Jobs: views, Count: len(views)})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, handled := s.routedJob(w, r, "")
	if handled {
		return
	}
	job, ok := s.Cancel(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	// A running job finishes asynchronously (within about one iteration
	// round); the returned view may still say "running". Pollers observe the
	// terminal "cancelled" state shortly after.
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, handled := s.routedJob(w, r, "")
	if handled {
		return
	}
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, handled := s.routedJob(w, r, "/result")
	if handled {
		return
	}
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	res, ok := job.Result()
	if !ok {
		view := job.View()
		code := http.StatusConflict
		if view.Status == StatusQueued || view.Status == StatusRunning {
			// Not ready yet: tell pollers to come back.
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, view)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = res.WriteJSON(w)
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.inc(jobsRejected)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid request body: %v", err)})
		return
	}
	job, err := s.SubmitBatch(r.Context(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job.View())
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case IsRequestError(err):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Batch(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown batch"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}
