package composite_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/label"
)

// countingLabels records every call the engine makes to a label similarity.
type countingLabels struct {
	sim   label.Similarity
	mu    sync.Mutex
	calls int
	seen  map[[2]string]int
}

func (c *countingLabels) score(a, b string) float64 {
	c.mu.Lock()
	c.calls++
	c.seen[[2]string{a, b}]++
	c.mu.Unlock()
	return c.sim(a, b)
}

// labelFixture is a small DS-FB pair with injected composites, up to eight
// discovered candidates per log and a Figure 11 style config (alpha 0.7,
// q-gram labels) at the given worker count.
func labelFixture(t *testing.T, workers int) (l1, l2 *eventlog.Log, c1, c2 []composite.Candidate, cfg composite.Config) {
	t.Helper()
	p, err := dataset.GeneratePair(rand.New(rand.NewSource(13)), "labels",
		dataset.Options{Events: 10, Traces: 40, OpaqueFraction: 0.5, CompositeMerges: 2, ExtraFront: 1, ExtraBack: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := composite.DefaultDiscoverOptions()
	opts.MaxCandidates = 8
	c1, c2 = composite.Discover(p.Log1, opts), composite.Discover(p.Log2, opts)
	if len(c1) == 0 || len(c2) == 0 {
		t.Fatalf("fixture needs candidates on both sides, got %d and %d", len(c1), len(c2))
	}
	cfg = composite.DefaultConfig()
	cfg.Sim.Alpha = 0.7
	cfg.Sim.Labels = label.QGramCosine(3)
	cfg.Sim.Workers = workers
	return p.Log1, p.Log2, c1, c2, cfg
}

// TestGreedyScoresEachLabelPairOnce: one Greedy call asks the label
// similarity about each distinct name pair at most once, so its calls are
// bounded by the names it can ever see — the originals plus one merged name
// per candidate on each side.
func TestGreedyScoresEachLabelPairOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		l1, l2, c1, c2, cfg := labelFixture(t, workers)
		counter := &countingLabels{sim: cfg.Sim.Labels, seen: make(map[[2]string]int)}
		cfg.Sim.Labels = counter.score
		res, err := composite.Greedy(l1, l2, c1, c2, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.CandidatesTried == 0 {
			t.Fatalf("workers=%d: no candidate was evaluated", workers)
		}
		for k, n := range counter.seen {
			if n > 1 {
				t.Errorf("workers=%d: pair %q scored %d times", workers, k, n)
			}
		}
		limit := (len(l1.Alphabet()) + len(c1)) * (len(l2.Alphabet()) + len(c2))
		if counter.calls > limit {
			t.Errorf("workers=%d: %d label calls, want at most %d", workers, counter.calls, limit)
		}
	}
}

// TestGreedyLabelReuseBitIdentical: without the prunings every candidate is
// computed from scratch, so the final similarity must equal, bit for bit, a
// fresh computation on the final merged graphs with the unwrapped labels.
func TestGreedyLabelReuseBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		l1, l2, c1, c2, cfg := labelFixture(t, workers)
		cfg.UseUnchanged, cfg.UseBounds = false, false
		res, err := composite.Greedy(l1, l2, c1, c2, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.StepsAccepted == 0 {
			t.Fatalf("workers=%d: fixture accepted no merge", workers)
		}
		want, err := core.Compute(artificialGraph(t, res.Log1), artificialGraph(t, res.Log2), cfg.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Final.Sim) != len(want.Sim) {
			t.Fatalf("workers=%d: %d similarities, want %d", workers, len(res.Final.Sim), len(want.Sim))
		}
		for i := range want.Sim {
			if res.Final.Sim[i] != want.Sim[i] {
				t.Fatalf("workers=%d: Sim[%d] = %v, fresh computation %v", workers, i, res.Final.Sim[i], want.Sim[i])
			}
		}
	}
}

// artificialGraph is the dependency graph Greedy builds for a log (no
// minimum-frequency filter).
func artificialGraph(t *testing.T, l *eventlog.Log) *depgraph.Graph {
	t.Helper()
	g, err := depgraph.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.AddArtificial(); err != nil {
		t.Fatal(err)
	}
	return g
}
