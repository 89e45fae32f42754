package core

// Tests in this file validate the paper's formal results directly: each
// theorem, lemma and proposition of Sections 3 and 4 has a corresponding
// executable check on the reconstructed running example and on random logs.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/depgraph"
)

// TestLemma5IncrementBound: 0 <= S^n - S^(n-1) <= (alpha*c)^n for every
// pair and round.
func TestLemma5IncrementBound(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := forwardConfig()
	cfg.Prune = false
	ac := cfg.Alpha * cfg.C
	var prev []float64
	for n := 1; n <= 10; n++ {
		cfg.MaxRounds = n
		r, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		if prev != nil {
			bound := math.Pow(ac, float64(n))
			for i := range r.Sim {
				d := r.Sim[i] - prev[i]
				if d < -1e-12 || d > bound+1e-9 {
					t.Fatalf("round %d: increment %g outside [0, %g] at %d", n, d, bound, i)
				}
			}
		}
		prev = r.Sim
	}
}

// TestProposition2EarlyConvergence: for every pair, the similarity is
// exactly fixed after h = min(l(v1), l(v2)) rounds (checked on the acyclic
// part of the example).
func TestProposition2EarlyConvergence(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	l1, err := g1.LongestFromArtificial()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := g2.LongestFromArtificial()
	if err != nil {
		t.Fatal(err)
	}
	cfg := forwardConfig()
	cfg.Prune = false
	results := make(map[int][]float64)
	for n := 1; n <= 8; n++ {
		cfg.MaxRounds = n
		r, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[n] = r.Sim
	}
	n2 := g2.RealCount()
	for i := 0; i < g1.RealCount(); i++ {
		for j := 0; j < n2; j++ {
			h := min(l1[i+1], l2[j+1])
			if h == depgraph.Infinite || h >= 8 {
				continue
			}
			fixed := results[h][i*n2+j]
			for n := h + 1; n <= 8; n++ {
				if math.Abs(results[n][i*n2+j]-fixed) > 1e-12 {
					t.Fatalf("pair (%d,%d) with h=%d changed at round %d: %g -> %g",
						i, j, h, n, fixed, results[n][i*n2+j])
				}
			}
		}
	}
}

// TestExample6EstimationAnchors: with I = 0, the estimate of a pair that
// converges after one round — like (A,1), whose only predecessors are the
// artificial events — equals the exact similarity, as Example 6 states.
func TestExample6EstimationAnchors(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	exact, err := Compute(g1, g2, forwardConfig())
	if err != nil {
		t.Fatal(err)
	}
	est, err := ExactEstimationTradeoff(g1, g2, forwardConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	we, _ := exact.Lookup("A", "1")
	ge, _ := est.Lookup("A", "1")
	if math.Abs(we-ge) > 1e-9 {
		t.Errorf("I=0 estimate of (A,1) = %g, want exact %g", ge, we)
	}
}

// TestTheorem1UniquenessFromDifferentStarts: the fixpoint is unique —
// iterating from a seeded nonzero start converges to the same limits (the
// contraction argument of the uniqueness proof). We approximate by freezing
// one non-artificial row at its exact converged values and checking the
// rest agree.
func TestTheorem1UniquenessFromDifferentStarts(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := forwardConfig()
	exact, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rowB := make([]bool, g1.N())
	rowB[g1.Index["B"]] = true
	seed := &Seed{From: exact, Side: 1, Fixed: [2][]bool{rowB, nil}}
	comp, err := NewComputation(g1, g2, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := comp.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Sim {
		if math.Abs(r.Sim[i]-exact.Sim[i]) > 1e-3 {
			t.Fatalf("seeded fixpoint differs at %d: %g vs %g", i, r.Sim[i], exact.Sim[i])
		}
	}
}

// TestConvergenceRateProperty: on random logs, the exact computation
// reaches epsilon-convergence within the geometric bound
// log(eps)/log(alpha*c) + slack rounds.
func TestConvergenceRateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g1, err := depgraph.Build(randomChainLog(rng))
		if err != nil {
			return true
		}
		g2, err := depgraph.Build(randomChainLog(rng))
		if err != nil {
			return true
		}
		ga1, _ := g1.AddArtificial()
		ga2, _ := g2.AddArtificial()
		cfg := DefaultConfig()
		r, err := Compute(ga1, ga2, cfg)
		if err != nil {
			return false
		}
		bound := int(math.Ceil(math.Log(cfg.Epsilon)/math.Log(cfg.Alpha*cfg.C))) + 2
		return r.Rounds <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestUpperBoundDominatesPairwise: the Proposition 6 / Corollary 7 bound
// dominates the final similarity for every pair, not just on average.
func TestUpperBoundDominatesPairwise(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := forwardConfig()
	final, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute stepwise and check the per-round engine bound.
	comp, err := NewComputation(g1, g2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := comp.fwd
	ac := cfg.Alpha * cfg.C
	for k := 0; k < 10; k++ {
		ack := math.Pow(ac, float64(k))
		n2 := e.n2
		for v1 := 1; v1 < e.n1; v1++ {
			for v2 := 1; v2 < n2; v2++ {
				h := min(e.l1[v1], e.l2[v2])
				var slack float64
				switch {
				case e.round >= h:
					slack = 0
				case h == depgraph.Infinite:
					slack = ack / (1 - ac)
				default:
					slack = (ack - math.Pow(ac, float64(h))) / (1 - ac)
				}
				bound := math.Min(1, e.cur[v1*n2+v2]+slack)
				got := final.Sim[(v1-1)*(n2-1)+(v2-1)]
				if got > bound+1e-9 {
					t.Fatalf("round %d: final %g exceeds bound %g for pair (%d,%d)", k, got, bound, v1, v2)
				}
			}
		}
		done, err := comp.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			break
		}
	}
}
