package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyNode serves /healthz and POST /v1/jobs, failing every request with
// 503 while broken is set and counting the hits per path. With heal set, a
// submission the node fails also clears broken once it has answered, so the
// node recovers between that attempt and the next.
func flakyNode(t *testing.T) (srv *httptest.Server, broken, heal *atomic.Bool, health, submits *atomic.Int64) {
	t.Helper()
	broken, heal = new(atomic.Bool), new(atomic.Bool)
	health, submits = new(atomic.Int64), new(atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		health.Add(1)
		if broken.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		submits.Add(1)
		if broken.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			if heal.Load() {
				broken.Store(false)
			}
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "job-000007", "status": "queued"})
	})
	srv = httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, broken, heal, health, submits
}

func TestProbeBacksOffDownPeers(t *testing.T) {
	srv, broken, _, hits, _ := flakyNode(t)
	broken.Store(true)
	h := NewHealth([]*Client{NewClient(Node{ID: "p1", Addr: srv.URL}, time.Second)}, nil)

	// Deterministic harness: a hand-cranked clock, jitter pinned to the
	// midpoint (factor exactly 1.0), and the base interval Run would set.
	now := time.Unix(1000, 0)
	h.mu.Lock()
	h.interval = 2 * time.Second
	h.now = func() time.Time { return now }
	h.jitter = func() float64 { return 0.5 }
	h.mu.Unlock()

	probe := func() { h.Probe(context.Background()) }

	probe() // first failure: down, next probe due at +2s
	if h.Up("p1") || hits.Load() != 1 {
		t.Fatalf("after first probe: up=%t hits=%d", h.Up("p1"), hits.Load())
	}
	now = now.Add(1 * time.Second)
	probe() // not due yet: the down peer must be skipped
	if hits.Load() != 1 {
		t.Fatalf("down peer probed before its backoff expired (hits=%d)", hits.Load())
	}
	now = now.Add(1 * time.Second)
	probe() // due at exactly +2s; second failure doubles the delay to 4s
	if hits.Load() != 2 {
		t.Fatalf("down peer not probed when due (hits=%d)", hits.Load())
	}
	now = now.Add(3 * time.Second)
	probe()
	if hits.Load() != 2 {
		t.Fatalf("backoff did not double after the second failure (hits=%d)", hits.Load())
	}
	now = now.Add(1 * time.Second)
	broken.Store(false)
	probe() // due again at +4s; the peer has recovered
	if hits.Load() != 3 || !h.Up("p1") {
		t.Fatalf("recovery probe: hits=%d up=%t", hits.Load(), h.Up("p1"))
	}
	// An up peer is probed on every tick again — no lingering backoff.
	probe()
	probe()
	if hits.Load() != 5 {
		t.Fatalf("recovered peer still throttled (hits=%d)", hits.Load())
	}
}

func TestBackoffCapAndJitterBounds(t *testing.T) {
	h := NewHealth(nil, nil)
	h.mu.Lock()
	h.interval = 2 * time.Second
	h.mu.Unlock()

	set := func(j float64) {
		h.mu.Lock()
		h.jitter = func() float64 { return j }
		h.mu.Unlock()
	}
	set(0.5)
	for want, failures := 2*time.Second, 1; failures <= 4; failures++ {
		if got := h.backoff(failures); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", failures, got, want)
		}
		want *= 2
	}
	if got := h.backoff(30); got != maxProbeBackoff {
		t.Fatalf("backoff(30) = %v, want cap %v", got, maxProbeBackoff)
	}
	set(0)
	if got := h.backoff(1); got != 1500*time.Millisecond {
		t.Fatalf("low-jitter backoff = %v, want 1.5s", got)
	}
	set(0.999)
	if got := h.backoff(1); got < 2*time.Second || got >= 2500*time.Millisecond {
		t.Fatalf("high-jitter backoff = %v, want in [2s, 2.5s)", got)
	}
}

func TestForwardRetriesOnceOnUnavailable(t *testing.T) {
	srv, broken, heal, _, submits := flakyNode(t)

	// A peer that recovers between the two attempts: the retry lands. The
	// node heals itself right after failing the first submission, so the
	// recovery precedes the retry however the goroutines are scheduled.
	broken.Store(true)
	heal.Store(true)
	c := NewClient(Node{ID: "p1", Addr: srv.URL}, time.Second)
	c.RetryBackoff = time.Millisecond
	code, _, err := c.Forward(context.Background(), []byte(`{}`))
	heal.Store(false)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("Forward after recovery: code=%d err=%v", code, err)
	}
	if submits.Load() != 2 {
		t.Fatalf("expected exactly one retry, saw %d submissions", submits.Load())
	}

	// A peer that stays down: exactly one retry, then the error surfaces.
	broken.Store(true)
	submits.Store(0)
	if _, _, err := c.Forward(context.Background(), []byte(`{}`)); !IsUnavailable(err) {
		t.Fatalf("persistent 503 not surfaced as unavailable: %v", err)
	}
	if submits.Load() != 2 {
		t.Fatalf("retry not bounded to one: %d submissions", submits.Load())
	}

	// A negative backoff disables the retry entirely.
	submits.Store(0)
	c.RetryBackoff = -1
	if _, _, err := c.Forward(context.Background(), []byte(`{}`)); !IsUnavailable(err) {
		t.Fatalf("want unavailable, got %v", err)
	}
	if submits.Load() != 1 {
		t.Fatalf("negative RetryBackoff still retried: %d submissions", submits.Load())
	}

	// A cancelled context aborts the backoff pause instead of sleeping it
	// out: with an hour-long pause the call must still return promptly,
	// carrying the first attempt's error and never reaching a second try.
	submits.Store(0)
	c.RetryBackoff = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, _, err := c.Forward(ctx, []byte(`{}`)); !IsUnavailable(err) {
		t.Fatalf("want first attempt's unavailable error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled context did not abort the pause (took %v)", elapsed)
	}
	if submits.Load() > 1 {
		t.Fatalf("cancelled context still retried: %d submissions", submits.Load())
	}
}
