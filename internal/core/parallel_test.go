package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/label"
	"repro/internal/procgen"
)

// procgenGraphs plays a random process specification out twice with
// independent choice skews and returns the two dependency graphs — the same
// heterogeneous-pair construction the experiments use.
func procgenGraphs(t testing.TB, seed int64, activities, traces int) (*depgraph.Graph, *depgraph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec, err := procgen.Generate(rng, procgen.DefaultOptions(activities))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	po := procgen.PlayoutOptions{Traces: traces, LoopRepeat: 0.3, MaxLoop: 3, XorSkew: 2}
	l1, err := spec.Playout(rng, "L1", po)
	if err != nil {
		t.Fatalf("Playout L1: %v", err)
	}
	l2, err := spec.Playout(rng, "L2", po)
	if err != nil {
		t.Fatalf("Playout L2: %v", err)
	}
	g1, err := depgraph.Build(l1)
	if err != nil {
		t.Fatalf("Build L1: %v", err)
	}
	g2, err := depgraph.Build(l2)
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

// requireBitIdentical fails unless the two results agree exactly: the same
// float64 bits in every matrix and the same counters. No tolerance — the
// parallel engine must reproduce the serial computation, not approximate it.
func requireBitIdentical(t *testing.T, serial, parallel *Result, label string) {
	t.Helper()
	if serial.Evaluations != parallel.Evaluations {
		t.Errorf("%s: Evaluations %d != serial %d", label, parallel.Evaluations, serial.Evaluations)
	}
	if serial.Rounds != parallel.Rounds {
		t.Errorf("%s: Rounds %d != serial %d", label, parallel.Rounds, serial.Rounds)
	}
	if serial.Converged != parallel.Converged {
		t.Errorf("%s: Converged %v != serial %v", label, parallel.Converged, serial.Converged)
	}
	matrices := []struct {
		name string
		s, p []float64
	}{
		{"Sim", serial.Sim, parallel.Sim},
		{"Forward", serial.Forward, parallel.Forward},
		{"Backward", serial.Backward, parallel.Backward},
	}
	for _, m := range matrices {
		if len(m.s) != len(m.p) {
			t.Errorf("%s: %s length %d != serial %d", label, m.name, len(m.p), len(m.s))
			continue
		}
		for i := range m.s {
			if m.s[i] != m.p[i] {
				t.Fatalf("%s: %s[%d] = %x differs from serial %x", label, m.name, i, m.p[i], m.s[i])
			}
		}
	}
}

// TestParallelBitIdenticalToSerial sweeps worker counts against the serial
// engine across pruning, estimation and direction settings on randomized
// procgen graphs.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g1, g2 := procgenGraphs(t, seed, 18, 60)
		for _, prune := range []bool{true, false} {
			for _, estimateI := range []int{-1, 0, 3} {
				cfg := DefaultConfig()
				cfg.Prune = prune
				cfg.EstimateI = estimateI
				cfg.Workers = 1
				serial, err := Compute(g1, g2, cfg)
				if err != nil {
					t.Fatalf("serial Compute: %v", err)
				}
				for _, workers := range []int{2, 8} {
					cfg.Workers = workers
					par, err := Compute(g1, g2, cfg)
					if err != nil {
						t.Fatalf("parallel Compute: %v", err)
					}
					requireBitIdentical(t, serial, par,
						fmt.Sprintf("seed=%d prune=%v estimateI=%d workers=%d", seed, prune, estimateI, workers))
				}
			}
		}
	}
}

// TestParallelBitIdenticalWithLabels exercises the parallel label-matrix
// construction (alpha < 1 calls the label similarity from worker
// goroutines).
func TestParallelBitIdenticalWithLabels(t *testing.T) {
	g1, g2 := procgenGraphs(t, 11, 16, 50)
	cfg := DefaultConfig()
	cfg.Alpha = 0.7
	cfg.Labels = label.QGramCosine(3)
	cfg.Workers = 1
	serial, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("serial Compute: %v", err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatalf("parallel Compute: %v", err)
		}
		requireBitIdentical(t, serial, par, fmt.Sprintf("labels workers=%d", workers))
	}
}

// TestParallelBitIdenticalSeeded covers Proposition-4 freezing and warm
// starts: both must survive any worker count unchanged.
func TestParallelBitIdenticalSeeded(t *testing.T) {
	g1, g2 := procgenGraphs(t, 3, 15, 50)
	base, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatalf("base Compute: %v", err)
	}
	// Freeze the first three forward/backward rows at their converged
	// values; separately, warm-start every pair from a perturbed base
	// result.
	rows := make([]bool, g1.N())
	for _, a := range base.Names1[:3] {
		rows[g1.Index[a]] = true
	}
	frozen := &Seed{From: base, Side: 1, Fixed: [2][]bool{rows, rows}}
	perturbed := *base
	perturbed.Forward = scaled(base.Forward, 0.9)
	perturbed.Backward = scaled(base.Backward, 0.9)
	warm := &Seed{From: &perturbed}
	run := func(seed *Seed, workers int) *Result {
		cfg := DefaultConfig()
		cfg.Workers = workers
		comp, err := NewComputation(g1, g2, cfg, seed)
		if err != nil {
			t.Fatalf("NewComputation workers=%d: %v", workers, err)
		}
		if err := comp.Run(); err != nil {
			t.Fatalf("Run workers=%d: %v", workers, err)
		}
		r, err := comp.Result()
		if err != nil {
			t.Fatalf("Result workers=%d: %v", workers, err)
		}
		return r
	}
	for name, seed := range map[string]*Seed{"frozen": frozen, "warm": warm} {
		serial := run(seed, 1)
		for _, workers := range []int{2, 8} {
			requireBitIdentical(t, serial, run(seed, workers), fmt.Sprintf("%s workers=%d", name, workers))
		}
	}
}

func scaled(m []float64, f float64) []float64 {
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = v * f
	}
	return out
}

// TestParallelStepwiseBitIdentical drives serial and parallel computations
// in lockstep the way composite matching does, comparing the upper bound
// after every round bit-for-bit.
func TestParallelStepwiseBitIdentical(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 15, 50)
	cfgS := DefaultConfig()
	cfgS.Workers = 1
	cfgP := DefaultConfig()
	cfgP.Workers = 4
	cs, err := NewComputation(g1, g2, cfgS, nil)
	if err != nil {
		t.Fatalf("NewComputation serial: %v", err)
	}
	cp, err := NewComputation(g1, g2, cfgP, nil)
	if err != nil {
		t.Fatalf("NewComputation parallel: %v", err)
	}
	for round := 1; round <= 100; round++ {
		ds, errS := cs.Step()
		dp, errP := cp.Step()
		if errS != nil || errP != nil {
			t.Fatalf("round %d: Step errors %v / %v", round, errS, errP)
		}
		if ds != dp {
			t.Fatalf("round %d: done %v != serial %v", round, dp, ds)
		}
		us, err := cs.AvgUpperBound()
		if err != nil {
			t.Fatalf("round %d: serial AvgUpperBound: %v", round, err)
		}
		up, err := cp.AvgUpperBound()
		if err != nil {
			t.Fatalf("round %d: parallel AvgUpperBound: %v", round, err)
		}
		if us != up {
			t.Fatalf("round %d: AvgUpperBound %x != serial %x", round, up, us)
		}
		if cs.Evaluations() != cp.Evaluations() {
			t.Fatalf("round %d: evaluations %d != serial %d", round, cp.Evaluations(), cs.Evaluations())
		}
		if ds {
			break
		}
	}
	rs, err := cs.Result()
	if err != nil {
		t.Fatalf("serial Result: %v", err)
	}
	rp, err := cp.Result()
	if err != nil {
		t.Fatalf("parallel Result: %v", err)
	}
	requireBitIdentical(t, rs, rp, "stepwise")
}

// TestParallelWithoutAgreementCache forces the uncached edge-agreement
// fallback, which recomputes factors inside worker goroutines.
func TestParallelWithoutAgreementCache(t *testing.T) {
	old := agreeCacheLimit
	agreeCacheLimit = 0
	defer func() { agreeCacheLimit = old }()
	g1, g2 := procgenGraphs(t, 9, 14, 40)
	cfg := DefaultConfig()
	cfg.Workers = 1
	serial, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("serial Compute: %v", err)
	}
	cfg.Workers = 8
	par, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("parallel Compute: %v", err)
	}
	requireBitIdentical(t, serial, par, "uncached workers=8")
}

func TestResolveWorkers(t *testing.T) {
	cases := []struct {
		workers, n1, n2, want int
	}{
		{1, 100, 100, 1}, // explicit serial
		{4, 100, 100, 4}, // explicit parallel
		{8, 4, 100, 3},   // capped at the n1-1 real rows
		{0, 10, 10, 1},   // auto stays serial under the threshold
		{3, 1, 10, 1},    // no real rows at all
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Workers = c.workers
		if got := resolveWorkers(cfg, c.n1, c.n2); got != c.want {
			t.Errorf("resolveWorkers(%d, %d, %d) = %d, want %d", c.workers, c.n1, c.n2, got, c.want)
		}
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
}
