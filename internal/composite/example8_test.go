package composite

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/paperexample"
)

// TestExample8UnchangedSimilarities reproduces Example 8: when the
// composite candidate U = {E,F} is merged into G1, the forward similarities
// of A, B, C and D are provably unchanged (AN(v) ∩ U = ∅ for each of them),
// so Proposition 4 lets the greedy seed their rows instead of recomputing.
//
// The claim is specific to the forward direction: backward similarity
// propagates from successors, and A..D are all ancestors of the merged
// region, so their backward rows genuinely change.
func TestExample8UnchangedSimilarities(t *testing.T) {
	l1, l2 := paperexample.Log1(), paperexample.Log2()
	g1, err := buildGraph(l1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := buildGraph(l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Direction = core.Forward
	base, err := core.Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cand := Candidate{Events: []string{"E", "F"}, Support: 0.4}
	merged := l1.MergeConsecutive(cand.Events, JoinName(cand.Events))
	mg, err := buildGraph(merged, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed := unchangedSeed(1, base, mg, cand)
	if seed == nil {
		t.Fatal("no seed built")
	}
	if seed.Side != 1 || seed.From != base {
		t.Fatalf("seed side %d from %p, want side 1 from the base result", seed.Side, seed.From)
	}
	// Example 8: AN(A) ∩ U = ... = AN(D) ∩ U = ∅, so all four forward rows
	// are seeded.
	for _, v := range []string{"A", "B", "C", "D"} {
		if i, ok := mg.Index[v]; !ok || !seed.Fixed[0][i] {
			t.Errorf("forward row of %s not seeded (Proposition 4 missed it)", v)
		}
	}
	// The merged node and surviving constituents must not be seeded.
	for _, v := range []string{JoinName(cand.Events), "E", "F"} {
		if i, ok := mg.Index[v]; ok && seed.Fixed[0][i] {
			t.Errorf("changed node %q wrongly seeded", v)
		}
	}
	comp, err := core.NewComputation(mg, g2, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := comp.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"A", "B", "C", "D"} {
		for _, u := range []string{"1", "2", "3", "4", "5", "6"} {
			b, _ := base.Lookup(v, u)
			m, _ := res.Lookup(v, u)
			if math.Abs(b-m) > 1e-12 {
				t.Errorf("forward S(%s,%s) changed after merging {E,F}: %g vs %g", v, u, b, m)
			}
		}
	}
	// Sanity: Proposition 4 is not vacuous — an unpruned recomputation of a
	// changed row (E against G2) does move.
	unseeded, err := core.Compute(mg, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bE, _ := base.Lookup("E", "5")
	mE, okE := unseeded.Lookup("E", "5")
	if okE && math.Abs(bE-mE) < 1e-9 {
		t.Logf("note: S(E,5) happened to be stable across the merge (%g)", bE)
	}
}
