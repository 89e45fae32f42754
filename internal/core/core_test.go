package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/label"
	"repro/internal/paperexample"
)

func exampleGraphs(t *testing.T) (*depgraph.Graph, *depgraph.Graph) {
	t.Helper()
	g1, err := depgraph.Build(paperexample.Log1())
	if err != nil {
		t.Fatalf("Build L1: %v", err)
	}
	g2, err := depgraph.Build(paperexample.Log2())
	if err != nil {
		t.Fatalf("Build L2: %v", err)
	}
	ga1, err := g1.AddArtificial()
	if err != nil {
		t.Fatalf("AddArtificial L1: %v", err)
	}
	ga2, err := g2.AddArtificial()
	if err != nil {
		t.Fatalf("AddArtificial L2: %v", err)
	}
	return ga1, ga2
}

func forwardConfig() Config {
	cfg := DefaultConfig()
	cfg.Direction = Forward
	return cfg
}

// TestExample4FirstIteration reproduces the numbers of Example 4: with
// alpha = 1 and c = 0.8, after the first iteration S^1(A,1) = 0.457 and
// S^1(A,2) = 0.6 — the dislocated pair (A,2) already outranks (A,1).
func TestExample4FirstIteration(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := forwardConfig()
	cfg.MaxRounds = 1
	cfg.Prune = false
	r, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	sA1, ok := r.Lookup("A", "1")
	if !ok {
		t.Fatalf("pair (A,1) not found")
	}
	if math.Abs(sA1-0.457) > 0.001 {
		t.Errorf("S^1(A,1) = %.4f, want 0.457", sA1)
	}
	sA2, _ := r.Lookup("A", "2")
	if math.Abs(sA2-0.6) > 0.001 {
		t.Errorf("S^1(A,2) = %.4f, want 0.600", sA2)
	}
	if sA2 <= sA1 {
		t.Errorf("dislocated pair (A,2)=%.3f not ranked above (A,1)=%.3f", sA2, sA1)
	}
}

// TestExample4Converged checks that the dislocated ranking survives full
// convergence and that S(A,1) keeps its round-1 value (it converges after
// one round, per Example 5).
func TestExample4Converged(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	r, err := Compute(g1, g2, forwardConfig())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	sA1, _ := r.Lookup("A", "1")
	if math.Abs(sA1-0.457) > 0.001 {
		t.Errorf("S(A,1) = %.4f, want 0.457 (converged after round 1)", sA1)
	}
	sA2, _ := r.Lookup("A", "2")
	if sA2 <= sA1 {
		t.Errorf("S(A,2)=%.3f <= S(A,1)=%.3f after convergence", sA2, sA1)
	}
	if !r.Converged {
		t.Errorf("computation did not converge")
	}
}

// TestMonotoneConvergence verifies Theorem 1 on the example: similarities
// are non-decreasing over rounds and bounded by 1.
func TestMonotoneConvergence(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := forwardConfig()
	cfg.Prune = false
	var prev []float64
	for rounds := 1; rounds <= 8; rounds++ {
		cfg.MaxRounds = rounds
		r, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		for i, v := range r.Sim {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("round %d: similarity out of [0,1]: %g", rounds, v)
			}
			if prev != nil && v < prev[i]-1e-12 {
				t.Fatalf("round %d: similarity decreased from %g to %g at %d", rounds, prev[i], v, i)
			}
		}
		prev = r.Sim
	}
}

// TestPruningPreservesResults: Proposition 2 pruning must not change any
// similarity, only reduce the number of formula evaluations.
func TestPruningPreservesResults(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfgOn := forwardConfig()
	cfgOff := forwardConfig()
	cfgOff.Prune = false
	on, err := Compute(g1, g2, cfgOn)
	if err != nil {
		t.Fatalf("Compute(prune): %v", err)
	}
	off, err := Compute(g1, g2, cfgOff)
	if err != nil {
		t.Fatalf("Compute(noprune): %v", err)
	}
	for i := range on.Sim {
		if math.Abs(on.Sim[i]-off.Sim[i]) > 1e-6 {
			t.Fatalf("pruning changed similarity at %d: %g vs %g", i, on.Sim[i], off.Sim[i])
		}
	}
	if on.Evaluations >= off.Evaluations {
		t.Errorf("pruning did not reduce evaluations: %d vs %d", on.Evaluations, off.Evaluations)
	}
}

// TestBothDirectionsAverage: the combined matrix is the average of forward
// and backward.
func TestBothDirectionsAverage(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfg := DefaultConfig()
	r, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if r.Forward == nil || r.Backward == nil {
		t.Fatalf("per-direction matrices missing")
	}
	for i := range r.Sim {
		want := (r.Forward[i] + r.Backward[i]) / 2
		if math.Abs(r.Sim[i]-want) > 1e-12 {
			t.Fatalf("Sim[%d] = %g, want average %g", i, r.Sim[i], want)
		}
	}
}

// TestBackwardEqualsForwardOnReversed: backward similarity must equal
// forward similarity computed on reversed graphs.
func TestBackwardEqualsForwardOnReversed(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cfgB := DefaultConfig()
	cfgB.Direction = Backward
	rb, err := Compute(g1, g2, cfgB)
	if err != nil {
		t.Fatalf("Compute backward: %v", err)
	}
	cfgF := forwardConfig()
	rf, err := Compute(g1.Reverse(), g2.Reverse(), cfgF)
	if err != nil {
		t.Fatalf("Compute forward-on-reversed: %v", err)
	}
	for i := range rb.Sim {
		if math.Abs(rb.Sim[i]-rf.Sim[i]) > 1e-9 {
			t.Fatalf("backward != forward-on-reversed at %d: %g vs %g", i, rb.Sim[i], rf.Sim[i])
		}
	}
}

// TestLabelBlending: with alpha < 1 identical labels raise similarity.
func TestLabelBlending(t *testing.T) {
	l1 := eventlog.New("x")
	l1.Append(eventlog.Trace{"pay", "ship"})
	l2 := eventlog.New("y")
	l2.Append(eventlog.Trace{"pay", "ship"})
	g1, _ := depgraph.Build(l1)
	g2, _ := depgraph.Build(l2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	cfg.Labels = label.QGramCosine(3)
	r, err := Compute(ga1, ga2, cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	same, _ := r.Lookup("pay", "pay")
	diff, _ := r.Lookup("pay", "ship")
	if same <= diff {
		t.Errorf("label blending failed: sim(pay,pay)=%.3f <= sim(pay,ship)=%.3f", same, diff)
	}
	// Structure alone cannot distinguish the two positions' labels... with
	// alpha=1 the pair (pay,pay) and (pay,ship) differ only structurally.
	cfg1 := DefaultConfig()
	r1, err := Compute(ga1, ga2, cfg1)
	if err != nil {
		t.Fatalf("Compute alpha=1: %v", err)
	}
	same1, _ := r1.Lookup("pay", "pay")
	if same <= same1*0.5 {
		t.Errorf("labels unexpectedly lowered identical-pair similarity: %g vs %g", same, same1)
	}
}

// TestEstimationConvergesToExact: Figure 5's premise — as I grows the
// estimation approaches the exact similarity.
func TestEstimationConvergesToExact(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	exact, err := Compute(g1, g2, forwardConfig())
	if err != nil {
		t.Fatalf("Compute exact: %v", err)
	}
	prevErr := math.Inf(1)
	for _, I := range []int{0, 2, 4, 8} {
		r, err := ExactEstimationTradeoff(g1, g2, forwardConfig(), I)
		if err != nil {
			t.Fatalf("Estimate I=%d: %v", I, err)
		}
		var maxErr float64
		for i := range r.Sim {
			if d := math.Abs(r.Sim[i] - exact.Sim[i]); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > prevErr+0.05 {
			t.Errorf("estimation error grew with I=%d: %g after %g", I, maxErr, prevErr)
		}
		prevErr = maxErr
	}
	if prevErr > 0.05 {
		t.Errorf("estimation with I=8 still far from exact: max error %g", prevErr)
	}
}

// TestEstimationExactWhenIExceedsBound: Algorithm 1 with I beyond every
// pair's convergence bound equals the exact computation.
func TestEstimationExactWhenIExceedsBound(t *testing.T) {
	l := eventlog.New("chain")
	l.Append(eventlog.Trace{"a", "b", "c"})
	g, _ := depgraph.Build(l)
	ga, _ := g.AddArtificial()
	exact, err := Compute(ga, ga, forwardConfig())
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	est, err := ExactEstimationTradeoff(ga, ga, forwardConfig(), 10)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	for i := range exact.Sim {
		if math.Abs(exact.Sim[i]-est.Sim[i]) > 1e-9 {
			t.Fatalf("I=10 estimation differs from exact at %d: %g vs %g", i, exact.Sim[i], est.Sim[i])
		}
	}
}

// TestEstimationCheaper: estimation with small I does fewer formula
// evaluations than the exact computation.
func TestEstimationCheaper(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	exact, _ := Compute(g1, g2, forwardConfig())
	est, err := ExactEstimationTradeoff(g1, g2, forwardConfig(), 1)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if est.Evaluations >= exact.Evaluations {
		t.Errorf("estimation evaluations %d >= exact %d", est.Evaluations, exact.Evaluations)
	}
}

// TestSelfSimilarityIdentity: matching a graph against itself must rank
// every event's self-pair at least as high as any other pair in its row
// (identical structure is the best possible match).
func TestSelfSimilarityIdentity(t *testing.T) {
	l := eventlog.New("chain")
	l.Append(eventlog.Trace{"a", "b", "c", "d"})
	l.Append(eventlog.Trace{"a", "c", "b", "d"})
	g, _ := depgraph.Build(l)
	ga, _ := g.AddArtificial()
	r, err := Compute(ga, ga, DefaultConfig())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	n := len(r.Names2)
	for i, a := range r.Names1 {
		self := r.Sim[i*n+i]
		for j := range r.Names2 {
			if r.Sim[i*n+j] > self+1e-9 {
				t.Errorf("sim(%s,%s)=%.4f exceeds self sim(%s,%s)=%.4f",
					a, r.Names2[j], r.Sim[i*n+j], a, a, self)
			}
		}
	}
}

// TestUpperBoundSound: stepping a computation, the average upper bound must
// always dominate the final exact average (Proposition 6 / Corollary 7).
func TestUpperBoundSound(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	final, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	want := final.Avg()
	comp, err := NewComputation(g1, g2, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	for i := 0; i < 50; i++ {
		ub, err := comp.AvgUpperBound()
		if err != nil {
			t.Fatalf("AvgUpperBound: %v", err)
		}
		if ub < want-1e-9 {
			t.Fatalf("round %d: upper bound %.6f below final average %.6f", i, ub, want)
		}
		done, err := comp.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			break
		}
	}
	res, err := comp.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	got := res.Avg()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("stepwise result %.6f differs from one-shot %.6f", got, want)
	}
}

// TestUpperBoundTightens: the bound is non-increasing over rounds.
func TestUpperBoundTightens(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	comp, err := NewComputation(g1, g2, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	prev, err := comp.AvgUpperBound()
	if err != nil {
		t.Fatalf("AvgUpperBound: %v", err)
	}
	for i := 0; i < 20; i++ {
		done, err := comp.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		ub, err := comp.AvgUpperBound()
		if err != nil {
			t.Fatalf("AvgUpperBound: %v", err)
		}
		if ub > prev+1e-9 {
			t.Fatalf("upper bound grew from %.6f to %.6f at round %d", prev, ub, i+1)
		}
		prev = ub
		if done {
			break
		}
	}
}

// TestSeedFreezesPairs: the pairs of a frozen row keep their seeded value
// exactly.
func TestSeedFreezesPairs(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	prev, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	i, j := slices.Index(prev.Names1, "A"), slices.Index(prev.Names2, "1")
	prev.Forward[i*len(prev.Names2)+j] = 0.123
	prev.Backward[i*len(prev.Names2)+j] = 0.321
	rowA := make([]bool, g1.N())
	rowA[g1.Index["A"]] = true
	seed := &Seed{From: prev, Side: 1, Fixed: [2][]bool{rowA, rowA}}
	comp, err := NewComputation(g1, g2, DefaultConfig(), seed)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if err := comp.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r, err := comp.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	fwd, _ := lookupIn(r.Names1, r.Names2, r.Forward, "A", "1")
	if math.Abs(fwd-0.123) > 1e-12 {
		t.Errorf("seeded forward value changed: %g", fwd)
	}
	bwd, _ := lookupIn(r.Names1, r.Names2, r.Backward, "A", "1")
	if math.Abs(bwd-0.321) > 1e-12 {
		t.Errorf("seeded backward value changed: %g", bwd)
	}
}

// TestSeedRejectsMismatch: a freezing seed must name a side, mark every
// vertex of that side, and come from a result over the other graph.
func TestSeedRejectsMismatch(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	prev, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]bool, g1.N())
	rows[g1.Index["A"]] = true
	other := *prev
	other.Names2 = append([]string{"not in g2"}, prev.Names2[1:]...)
	for name, seed := range map[string]*Seed{
		"side":   {From: prev, Side: 3, Fixed: [2][]bool{rows, rows}},
		"length": {From: prev, Side: 2, Fixed: [2][]bool{rows[:2], rows[:2]}},
		"other":  {From: &other, Side: 1, Fixed: [2][]bool{rows, rows}},
	} {
		if _, err := NewComputation(g1, g2, DefaultConfig(), seed); err == nil {
			t.Errorf("%s: NewComputation accepted a mismatched seed", name)
		}
	}
}

func lookupIn(names1, names2 []string, mat []float64, a, b string) (float64, bool) {
	i, j := -1, -1
	for k, n := range names1 {
		if n == a {
			i = k
		}
	}
	for k, n := range names2 {
		if n == b {
			j = k
		}
	}
	if i < 0 || j < 0 || mat == nil {
		return 0, false
	}
	return mat[i*len(names2)+j], true
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Alpha: -0.1, C: 0.8, Epsilon: 1e-4, MaxRounds: 10},
		{Alpha: 1.1, C: 0.8, Epsilon: 1e-4, MaxRounds: 10},
		{Alpha: 1, C: 0, Epsilon: 1e-4, MaxRounds: 10},
		{Alpha: 1, C: 1, Epsilon: 1e-4, MaxRounds: 10},
		{Alpha: 1, C: 0.8, Epsilon: 0, MaxRounds: 10},
		{Alpha: 1, C: 0.8, Epsilon: 1e-4, MaxRounds: 0},
		{Alpha: 1, C: 0.8, Epsilon: 1e-4, MaxRounds: 10, Direction: Direction(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestComputeRequiresArtificial(t *testing.T) {
	g1, err := depgraph.Build(paperexample.Log1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(g1, g1, DefaultConfig()); err == nil {
		t.Errorf("graphs without artificial event accepted")
	}
}

func TestExactEstimationTradeoffRejectsNegative(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	if _, err := ExactEstimationTradeoff(g1, g2, DefaultConfig(), -1); err == nil {
		t.Errorf("negative iterations accepted")
	}
}

// Property: on random acyclic-ish logs, similarity stays within [0,1] and
// the computation converges.
func TestSimilarityRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := randomChainLog(rng)
		l2 := randomChainLog(rng)
		g1, err := depgraph.Build(l1)
		if err != nil {
			return true // degenerate log; skip
		}
		g2, err := depgraph.Build(l2)
		if err != nil {
			return true
		}
		ga1, _ := g1.AddArtificial()
		ga2, _ := g2.AddArtificial()
		r, err := Compute(ga1, ga2, DefaultConfig())
		if err != nil {
			return false
		}
		for _, v := range r.Sim {
			if v < 0 || v > 1+1e-9 {
				return false
			}
		}
		return r.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: estimation results are also within [0,1].
func TestEstimationRangeProperty(t *testing.T) {
	f := func(seed int64, iRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l1 := randomChainLog(rng)
		l2 := randomChainLog(rng)
		g1, err := depgraph.Build(l1)
		if err != nil {
			return true
		}
		g2, err := depgraph.Build(l2)
		if err != nil {
			return true
		}
		ga1, _ := g1.AddArtificial()
		ga2, _ := g2.AddArtificial()
		r, err := ExactEstimationTradeoff(ga1, ga2, DefaultConfig(), int(iRaw%6))
		if err != nil {
			return false
		}
		for _, v := range r.Sim {
			if v < 0 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomChainLog builds short random traces over a small alphabet, mostly
// forward-flowing so graphs are often acyclic.
func randomChainLog(rng *rand.Rand) *eventlog.Log {
	events := []string{"a", "b", "c", "d", "e", "f", "g"}
	l := eventlog.New("rand")
	n := 2 + rng.Intn(8)
	for i := 0; i < n; i++ {
		start := rng.Intn(3)
		end := start + 1 + rng.Intn(len(events)-start-1)
		tr := make(eventlog.Trace, 0, end-start)
		for j := start; j <= end && j < len(events); j++ {
			if rng.Float64() < 0.8 {
				tr = append(tr, events[j])
			}
		}
		if len(tr) == 0 {
			tr = append(tr, events[start])
		}
		l.Append(tr)
	}
	return l
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" || Both.String() != "both" {
		t.Errorf("direction names wrong: %s %s %s", Forward, Backward, Both)
	}
}

func TestResultAvgEmpty(t *testing.T) {
	r := &Result{}
	if r.Avg() != 0 {
		t.Errorf("empty Avg = %g, want 0", r.Avg())
	}
}
