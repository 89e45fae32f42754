package core

import (
	"math"
	"testing"

	"repro/internal/depgraph"
)

// withoutAgreementCache runs fn with the agreement cache disabled, so the
// engine computes every factor on the fly.
func withoutAgreementCache(fn func() (*Result, error)) (*Result, error) {
	old := agreeCacheLimit
	agreeCacheLimit = 0
	defer func() { agreeCacheLimit = old }()
	return fn()
}

// requireSameBits fails unless the two results carry the same float64 bits
// in every matrix and in the error bound, and the same counters.
func requireSameBits(t *testing.T, cached, plain *Result) {
	t.Helper()
	if cached.Evaluations != plain.Evaluations || cached.Rounds != plain.Rounds || cached.Pruned != plain.Pruned {
		t.Errorf("cache changed counters: evals %d/%d rounds %d/%d pruned %d/%d",
			cached.Evaluations, plain.Evaluations, cached.Rounds, plain.Rounds, cached.Pruned, plain.Pruned)
	}
	if math.Float64bits(cached.ErrorBound) != math.Float64bits(plain.ErrorBound) {
		t.Errorf("cache changed the error bound: %x vs %x", cached.ErrorBound, plain.ErrorBound)
	}
	for _, m := range []struct {
		name string
		c, p []float64
	}{{"Sim", cached.Sim, plain.Sim}, {"Forward", cached.Forward, plain.Forward}, {"Backward", cached.Backward, plain.Backward}} {
		if len(m.c) != len(m.p) {
			t.Fatalf("%s: length %d vs %d", m.name, len(m.c), len(m.p))
		}
		for i := range m.c {
			if math.Float64bits(m.c[i]) != math.Float64bits(m.p[i]) {
				t.Fatalf("cache changed %s at %d: %x vs %x", m.name, i, m.c[i], m.p[i])
			}
		}
	}
}

// cacheEquivalenceGraphs are the paper's example and a procgen pair large
// enough for the fast path to cut over.
func cacheEquivalenceGraphs(t *testing.T) map[string][2]*depgraph.Graph {
	g1, g2 := exampleGraphs(t)
	p1, p2 := procgenGraphs(t, 2014, 60, 120)
	return map[string][2]*depgraph.Graph{"paper": {g1, g2}, "procgen": {p1, p2}}
}

// TestAgreementCacheEquivalence: results must be bit-identical with and
// without the precomputed edge-agreement cache (the cache is a pure
// optimization), in exact mode and on the fast path, whose certifying
// residual pass runs the fallback kernel too.
func TestAgreementCacheEquivalence(t *testing.T) {
	for name, gs := range cacheEquivalenceGraphs(t) {
		for _, fast := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.FastPath = fast
			compute := func() (*Result, error) { return Compute(gs[0], gs[1], cfg) }
			cached, err := compute()
			if err != nil {
				t.Fatalf("%s fast=%v cached: %v", name, fast, err)
			}
			plain, err := withoutAgreementCache(compute)
			if err != nil {
				t.Fatalf("%s fast=%v uncached: %v", name, fast, err)
			}
			if fast && name == "procgen" && (!cached.Estimated || cached.ErrorBound == 0) {
				t.Fatalf("procgen fast path did not cut over and certify: estimated=%v bound=%g", cached.Estimated, cached.ErrorBound)
			}
			requireSameBits(t, cached, plain)
		}
	}
}

// TestAgreementCacheEquivalenceEstimation: likewise in estimation mode.
func TestAgreementCacheEquivalenceEstimation(t *testing.T) {
	for name, gs := range cacheEquivalenceGraphs(t) {
		compute := func() (*Result, error) { return ExactEstimationTradeoff(gs[0], gs[1], DefaultConfig(), 2) }
		cached, err := compute()
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		plain, err := withoutAgreementCache(compute)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		requireSameBits(t, cached, plain)
	}
}

// TestFallbackRoundAllocs: a round without the agreement cache works in the
// worker's scratch, so its allocations do not grow with the evaluations.
func TestFallbackRoundAllocs(t *testing.T) {
	g1, g2 := procgenGraphs(t, 4, 40, 60)
	cfg := DefaultConfig()
	cfg.Prune = false
	cfg.Workers = 1
	old := agreeCacheLimit
	agreeCacheLimit = 0
	c, err := NewComputation(g1, g2, cfg, nil)
	agreeCacheLimit = old
	if err != nil {
		t.Fatal(err)
	}
	e := c.fwd
	if e.agreeRows != nil {
		t.Fatal("engine built the agreement cache")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a fallback round of %d evaluations made %.0f allocations", e.roundEvals, allocs)
	}
}
