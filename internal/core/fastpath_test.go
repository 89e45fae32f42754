package core

import (
	"fmt"
	"math"
	"testing"
)

// fastConfig is DefaultConfig with the adaptive fast path switched on, the
// configuration ems.Match now uses by default.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.FastPath = true
	return cfg
}

// TestFastPathConvergenceRegression pins the headline claim of the fast
// path on a bench-shaped procedurally generated workload: the adaptive
// cutover must at least halve the number of exact iteration rounds, and
// Proposition-2 pruning must still skip work alongside it (non-zero pruned
// counts, both in the final Result and in the per-round observer stream).
// A change that silently disables the cutover detector or pruning on the
// fast path fails here even though results would still be correct.
func TestFastPathConvergenceRegression(t *testing.T) {
	g1, g2 := procgenGraphs(t, 2014, 100, 200)

	exact, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatalf("exact Compute: %v", err)
	}
	if exact.Estimated || exact.ErrorBound != 0 {
		t.Fatalf("exact run reports estimation: estimated=%v bound=%g", exact.Estimated, exact.ErrorBound)
	}

	cfg := fastConfig()
	var (
		roundPruned int
		lastObs     *RoundObservation
	)
	cfg.OnRound = func(b *RoundBoundary) {
		for _, d := range b.Dirs {
			roundPruned += d.RoundPruned
		}
		lastObs = &b.RoundObservation
	}
	fast, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("fast Compute: %v", err)
	}

	if !fast.Estimated {
		t.Fatalf("fast path never cut over (rounds=%d, exact rounds=%d)", fast.Rounds, exact.Rounds)
	}
	if fast.Rounds > exact.Rounds/2 {
		t.Errorf("fast path took %d exact rounds, want <= half of exact's %d", fast.Rounds, exact.Rounds)
	}
	if fast.Evaluations >= exact.Evaluations {
		t.Errorf("fast path evaluations %d not below exact %d", fast.Evaluations, exact.Evaluations)
	}
	if fast.Pruned <= 0 {
		t.Errorf("fast path Result.Pruned = %d, want > 0", fast.Pruned)
	}
	if fast.ErrorBound <= 0 {
		t.Errorf("fast path ErrorBound = %g, want > 0", fast.ErrorBound)
	}

	// The observer stream must carry the same story: per-round pruned
	// counts accumulate, and the final (synthetic) observation reports the
	// estimation with its bound.
	if roundPruned <= 0 {
		t.Errorf("observer saw no pruned pairs (sum of RoundPruned = %d)", roundPruned)
	}
	if lastObs == nil {
		t.Fatal("observer never called")
	}
	estimated := false
	for _, d := range lastObs.Dirs {
		if d.Estimated {
			estimated = true
			if d.TotalPruned <= 0 {
				t.Errorf("final observation: %s TotalPruned = %d, want > 0", d.Direction, d.TotalPruned)
			}
			if d.ErrorBound <= 0 {
				t.Errorf("final observation: %s ErrorBound = %g, want > 0", d.Direction, d.ErrorBound)
			}
		}
	}
	if !estimated {
		t.Error("final observation has no Estimated direction despite Result.Estimated")
	}
}

// TestFastPathErrorWithinBound is the estimation-accuracy property test: for
// every combination of alpha (with and without a label part), decay constant
// and direction, the per-pair absolute difference between the fast-path
// result and the exact fixpoint iteration must stay within the certified
// a-posteriori bound the fast path reports. The exact reference is itself
// only an epsilon-converged iterate, at most Epsilon*ac/(1-ac) away from the
// true fixpoint, so that slack (plus float noise) is added to the allowance.
func TestFastPathErrorWithinBound(t *testing.T) {
	g1, g2 := procgenGraphs(t, 13, 24, 80)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"labels", func(c *Config) { c.Alpha = 0.7; c.Labels = testLabelSim }},
		{"lowC", func(c *Config) { c.C = 0.5 }},
		{"labels-lowC", func(c *Config) { c.Alpha = 0.7; c.C = 0.5; c.Labels = testLabelSim }},
		{"forward", func(c *Config) { c.Direction = Forward }},
		{"backward", func(c *Config) { c.Direction = Backward }},
		{"tight-budget", func(c *Config) { c.FastPathBudget = 0.01 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ecfg := DefaultConfig()
			tc.mutate(&ecfg)
			exact, err := Compute(g1, g2, ecfg)
			if err != nil {
				t.Fatalf("exact Compute: %v", err)
			}

			fcfg := ecfg
			fcfg.FastPath = true
			fast, err := Compute(g1, g2, fcfg)
			if err != nil {
				t.Fatalf("fast Compute: %v", err)
			}
			if fast.ErrorBound <= 0 {
				t.Fatalf("fast ErrorBound = %g, want > 0", fast.ErrorBound)
			}

			ac := fcfg.Alpha * fcfg.C
			allowed := fast.ErrorBound + fcfg.Epsilon*ac/(1-ac) + 1e-12
			matrices := []struct {
				name string
				e, f []float64
			}{
				{"Sim", exact.Sim, fast.Sim},
				{"Forward", exact.Forward, fast.Forward},
				{"Backward", exact.Backward, fast.Backward},
			}
			for _, m := range matrices {
				if len(m.e) != len(m.f) {
					t.Fatalf("%s length mismatch: exact %d, fast %d", m.name, len(m.e), len(m.f))
				}
				maxErr := 0.0
				for i := range m.e {
					if d := math.Abs(m.e[i] - m.f[i]); d > maxErr {
						maxErr = d
					}
				}
				if maxErr > allowed {
					t.Errorf("%s: max |fast-exact| = %g exceeds certified allowance %g (bound %g)",
						m.name, maxErr, allowed, fast.ErrorBound)
				}
			}
		})
	}
}

// TestFastPathDeterministic checks that the adaptive fast path — cutover
// detection, estimate and certification — is bit-identical at every worker
// count. The cutover decision reads only the order-independent global max
// delta, so nothing may vary.
func TestFastPathDeterministic(t *testing.T) {
	g1, g2 := procgenGraphs(t, 2014, 30, 90)
	base := fastConfig()
	base.Workers = 1
	serial, err := Compute(g1, g2, base)
	if err != nil {
		t.Fatalf("serial Compute: %v", err)
	}
	if !serial.Estimated {
		t.Fatal("fast path never cut over on the determinism workload")
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatalf("workers=%d Compute: %v", workers, err)
		}
		label := fmt.Sprintf("fast workers=%d", workers)
		requireBitIdentical(t, serial, got, label)
		if got.Estimated != serial.Estimated {
			t.Errorf("%s: Estimated %v != serial %v", label, got.Estimated, serial.Estimated)
		}
		if got.ErrorBound != serial.ErrorBound {
			t.Errorf("%s: ErrorBound %x != serial %x", label, got.ErrorBound, serial.ErrorBound)
		}
		if got.Pruned != serial.Pruned {
			t.Errorf("%s: Pruned %d != serial %d", label, got.Pruned, serial.Pruned)
		}
	}
}

// TestFastPathFinishBeforeFirstRound: a stepwise fast-path computation
// finished before any round has no round delta to certify from, so
// certification must iterate itself instead of reporting a zero bound.
func TestFastPathFinishBeforeFirstRound(t *testing.T) {
	g1, g2 := procgenGraphs(t, 13, 24, 80)
	exact, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	c, err := NewComputation(g1, g2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds == 0 || r.ErrorBound <= 0 || r.ErrorBound > cfg.fastPathBudget() {
		t.Fatalf("rounds=%d ErrorBound=%g, want rounds > 0 and 0 < bound <= %g", r.Rounds, r.ErrorBound, cfg.fastPathBudget())
	}
	ac := cfg.Alpha * cfg.C
	allowed := r.ErrorBound + cfg.Epsilon*ac/(1-ac) + 1e-12
	for i := range exact.Sim {
		if d := math.Abs(exact.Sim[i] - r.Sim[i]); d > allowed {
			t.Fatalf("Sim[%d] off by %g, certified allowance %g", i, d, allowed)
		}
	}
}
