package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/ems"
	"repro/internal/failpoint"
	"repro/internal/obs"
)

// ForwardedHeader marks a request that already crossed one node boundary.
// A node receiving it always executes locally — never re-forwards — so a
// stale or disagreeing ring cannot bounce a job around the cluster.
const ForwardedHeader = "X-Emsd-Forwarded"

// QualifyJobID tags a job ID with the node it lives on. A node that
// forwards a submission returns the owner's job ID in this qualified form,
// so later GET/DELETE calls on any node can be routed back to the owner.
func QualifyJobID(id, nodeID string) string { return id + "@" + nodeID }

// SplitJobID undoes QualifyJobID. nodeID is empty for an unqualified
// (local) ID.
func SplitJobID(qualified string) (id, nodeID string) {
	if i := strings.LastIndexByte(qualified, '@'); i >= 0 {
		return qualified[:i], qualified[i+1:]
	}
	return qualified, ""
}

// UnavailableError reports that a peer could not be reached or could not
// accept work (transport failure, 5xx, or an explicit shedding/shutdown
// 503). It is the coordinator's failover trigger: unlike a 4xx — which
// means the job itself is bad and would fail identically anywhere — an
// unavailable peer justifies retrying on the next ring replica.
type UnavailableError struct {
	Node string // node ID
	Op   string // what was being attempted
	Err  error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("cluster: peer %s unavailable during %s: %v", e.Node, e.Op, e.Err)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// IsUnavailable reports whether err means a peer was unreachable (and the
// work is worth retrying elsewhere).
func IsUnavailable(err error) bool {
	var ue *UnavailableError
	return errors.As(err, &ue)
}

// RemoteError is a terminal error reported by a peer: the peer was healthy
// and answered, but the job was rejected or failed there. Retrying on
// another node would reproduce it, so the coordinator does not fail over.
type RemoteError struct {
	Node string
	Code int // HTTP status, 0 when the job failed after acceptance
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Code != 0 {
		return fmt.Sprintf("cluster: peer %s rejected the job (HTTP %d): %s", e.Node, e.Code, e.Msg)
	}
	return fmt.Sprintf("cluster: job failed on peer %s: %s", e.Node, e.Msg)
}

// JobRef is the slice of a peer's job view the client needs: identity and
// lifecycle. Extra fields in the peer's response are ignored, so client and
// peer versions may skew.
type JobRef struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// Client talks the emsd HTTP API to one peer node.
type Client struct {
	node Node
	hc   *http.Client

	// RetryBackoff is the pause Forward takes before its single retry of
	// an unavailable peer. 0 means 50ms; negative disables the retry. Set
	// before sharing the client.
	RetryBackoff time.Duration
}

// NewClient returns a client for node with a per-request timeout (<= 0
// means 15s). The timeout bounds one HTTP exchange, not a whole job: long
// computations are polled, never held open.
func NewClient(node Node, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	return &Client{node: node, hc: &http.Client{Timeout: timeout}}
}

// Node returns the peer this client dials.
func (c *Client) Node() Node { return c.node }

// Do performs one HTTP exchange with the peer and returns the status code
// and full response body. Transport failures and 5xx responses come back as
// *UnavailableError; any other status is returned for the caller to
// interpret. The forwarded marker is always set: everything a Client sends
// has already crossed a node boundary. When ctx carries an obs.Trace, the
// exchange is recorded as a "peer:<node>" hop span and the trace ID plus
// that span's ID travel in the X-Emsd-Trace header, so spans the peer
// records parent under this hop.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var hop *obs.Span
	if tr := obs.TraceFrom(ctx); tr != nil {
		hop = tr.StartSpan("peer:" + c.node.ID)
		hop.SetAttr("op", method+" "+path)
		defer hop.End()
	}
	if code, b, err, injected := c.applyFault(ctx, method, path); injected {
		return code, b, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.node.Addr+path, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: build request: %w", err)
	}
	req.Header.Set(ForwardedHeader, "1")
	if hop != nil {
		tr := hop.Trace()
		req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(tr.ID(), hop.ID()))
		// Also carry the bare trace ID as the request ID so the peer's log
		// lines correlate even through layers that only know X-Request-ID.
		req.Header.Set(obs.RequestIDHeader, tr.ID())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, &UnavailableError{Node: c.node.ID, Op: method + " " + path, Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, &UnavailableError{Node: c.node.ID, Op: method + " " + path, Err: err}
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusServiceUnavailable {
		return resp.StatusCode, b, &UnavailableError{
			Node: c.node.ID, Op: method + " " + path,
			Err: fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorMessage(b)),
		}
	}
	return resp.StatusCode, b, nil
}

// applyFault fires the peer.call failpoint and realizes its fault: the
// delay always applies; injected reports whether the fault also decided the
// exchange's outcome (a delay-only fault lets the real exchange proceed
// afterwards).
func (c *Client) applyFault(ctx context.Context, method, path string) (int, []byte, error, bool) {
	pf := failpoint.Fire(failpoint.PeerCall, c.node.ID)
	op := method + " " + path
	if pf.Delay > 0 {
		t := time.NewTimer(pf.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return 0, nil, &UnavailableError{Node: c.node.ID, Op: op, Err: ctx.Err()}, true
		case <-t.C:
		}
	}
	if pf.Err != nil {
		return 0, nil, &UnavailableError{Node: c.node.ID, Op: op, Err: pf.Err}, true
	}
	if pf.Status != 0 {
		if pf.Status >= 500 || pf.Status == http.StatusServiceUnavailable {
			return pf.Status, pf.Body, &UnavailableError{
				Node: c.node.ID, Op: op,
				Err: fmt.Errorf("HTTP %d: %s", pf.Status, errorMessage(pf.Body)),
			}, true
		}
		return pf.Status, pf.Body, nil, true
	}
	return 0, nil, nil, false
}

// errorMessage extracts the "error" field of an emsd error body, falling
// back to the raw (truncated) body.
func errorMessage(body []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	s := string(body)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return strings.TrimSpace(s)
}

// NodeLoad is the slice of a peer's /healthz body that matters for
// load-aware placement: the memory governor's state and committed budget
// fraction. Peers running without a budget report {"ok", 0}.
type NodeLoad struct {
	Governor string  `json:"governor"`
	Load     float64 `json:"load"`
}

// Saturated reports whether the peer declared itself out of memory budget.
func (l NodeLoad) Saturated() bool { return l.Governor == "saturated" }

// Probe checks the peer's liveness endpoint and returns its load signal.
// A missing governor field (older peer) decodes to the zero NodeLoad, which
// never reads as saturated.
func (c *Client) Probe(ctx context.Context) (NodeLoad, error) {
	var nl NodeLoad
	code, body, err := c.Do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return nl, err
	}
	if code != http.StatusOK {
		return nl, &UnavailableError{Node: c.node.ID, Op: "GET /healthz",
			Err: fmt.Errorf("HTTP %d: %s", code, errorMessage(body))}
	}
	_ = json.Unmarshal(body, &nl) // best effort: liveness decided above
	return nl, nil
}

// Healthy probes the peer's liveness endpoint.
func (c *Client) Healthy(ctx context.Context) error {
	_, err := c.Probe(ctx)
	return err
}

// Forward posts a serialized job submission to the peer, retrying once
// after a short pause when the attempt fails with *UnavailableError. The
// retry is safe to send blind: emsd submissions are content-addressed, so
// a duplicate that raced a slow-but-successful first attempt coalesces
// onto the same job instead of computing twice. One retry is the bound —
// a peer that fails twice in a row is genuinely down, and the caller's
// ring failover (plus the health tracker the failure feeds) is the right
// next move, not more waiting here.
func (c *Client) Forward(ctx context.Context, body []byte) (int, []byte, error) {
	code, resp, err := c.Do(ctx, http.MethodPost, "/v1/jobs", body)
	if err == nil || !IsUnavailable(err) || c.RetryBackoff < 0 {
		return code, resp, err
	}
	backoff := c.RetryBackoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return code, resp, err
	case <-t.C:
	}
	return c.Do(ctx, http.MethodPost, "/v1/jobs", body)
}

// Submit posts a job body (a serialized emsd JobRequest) to the peer and
// returns its job handle, retrying once via Forward if the peer is
// unavailable. A 4xx answer is a *RemoteError: the job is bad, not the
// peer.
func (c *Client) Submit(ctx context.Context, body []byte) (*JobRef, error) {
	code, resp, err := c.Forward(ctx, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, &RemoteError{Node: c.node.ID, Code: code, Msg: errorMessage(resp)}
	}
	var ref JobRef
	if err := json.Unmarshal(resp, &ref); err != nil || ref.ID == "" {
		return nil, &UnavailableError{Node: c.node.ID, Op: "POST /v1/jobs",
			Err: fmt.Errorf("unparseable accept body: %q", resp)}
	}
	return &ref, nil
}

// Job fetches the peer's view of one of its jobs.
func (c *Client) Job(ctx context.Context, id string) (*JobRef, error) {
	code, resp, err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, &RemoteError{Node: c.node.ID, Code: code, Msg: errorMessage(resp)}
	}
	var ref JobRef
	if err := json.Unmarshal(resp, &ref); err != nil || ref.ID == "" {
		return nil, &UnavailableError{Node: c.node.ID, Op: "GET /v1/jobs/" + id,
			Err: fmt.Errorf("unparseable job body: %q", resp)}
	}
	return &ref, nil
}

// Result fetches and decodes a finished job's result.
func (c *Client) Result(ctx context.Context, id string) (*ems.Result, error) {
	code, resp, err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, &RemoteError{Node: c.node.ID, Code: code, Msg: errorMessage(resp)}
	}
	res, err := ems.ReadResultJSON(bytes.NewReader(resp))
	if err != nil {
		return nil, &UnavailableError{Node: c.node.ID, Op: "GET /v1/jobs/" + id + "/result", Err: err}
	}
	return res, nil
}

// Cancel asks the peer to abort one of its jobs (best effort).
func (c *Client) Cancel(ctx context.Context, id string) error {
	_, _, err := c.Do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	return err
}

// RunJob executes one job to completion on the peer: submit, poll every
// pollEvery (<= 0 means 100ms) until terminal, then fetch the result. The
// returned job ID identifies the job on the peer even when an error is
// returned (empty if submission itself failed). Cancelling ctx abandons the
// poll and best-effort-cancels the remote job so the peer does not keep
// computing for a coordinator that is gone.
func (c *Client) RunJob(ctx context.Context, body []byte, pollEvery time.Duration) (*ems.Result, string, error) {
	if pollEvery <= 0 {
		pollEvery = 100 * time.Millisecond
	}
	ref, err := c.Submit(ctx, body)
	if err != nil {
		return nil, "", err
	}
	id := ref.ID
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		switch ref.Status {
		case "done":
			res, err := c.Result(ctx, id)
			return res, id, err
		case "failed":
			return nil, id, &RemoteError{Node: c.node.ID, Msg: ref.Error}
		case "cancelled":
			return nil, id, &RemoteError{Node: c.node.ID, Msg: "cancelled on peer"}
		}
		select {
		case <-ctx.Done():
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = c.Cancel(cctx, id)
			cancel()
			return nil, id, fmt.Errorf("cluster: job %s on peer %s abandoned: %w", id, c.node.ID, context.Cause(ctx))
		case <-tick.C:
		}
		if ref, err = c.Job(ctx, id); err != nil {
			return nil, id, err
		}
	}
}
