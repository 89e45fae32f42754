package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/eventlog"
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
// cutover must at least halve the number of exact iteration rounds, and the
// per-pair freezing must actually skip work (non-zero pruned counts, both in
// the final Result and in the per-round observer stream). A change that
// silently disables the cutover detector or the freezing pass fails here
// even though results would still be correct.
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
// detection, per-pair freezing and the certification pass — is bit-identical
// at every worker count and with either matrix layout. The cutover decision
// reads only the order-independent global max delta, so nothing may vary.
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
	for _, workers := range []int{1, 2, 8} {
		for _, tiled := range []bool{false, true} {
			if workers == 1 && !tiled {
				continue
			}
			cfg := base
			cfg.Workers = workers
			cfg.Tiled = tiled
			got, err := Compute(g1, g2, cfg)
			if err != nil {
				t.Fatalf("workers=%d tiled=%v Compute: %v", workers, tiled, err)
			}
			label := fmt.Sprintf("fast workers=%d tiled=%v", workers, tiled)
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
}

// TestExactTiledBitIdentical extends the equivalence matrix to the blocked
// layout in exact mode: tiling is a pure storage change, so exact runs must
// reproduce the serial row-major bits at every worker count, with and
// without pruning and labels.
func TestExactTiledBitIdentical(t *testing.T) {
	g1, g2 := procgenGraphs(t, 7, 12, 40)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"noprune", func(c *Config) { c.Prune = false }},
		{"labels", func(c *Config) { c.Alpha = 0.7; c.Labels = testLabelSim }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := DefaultConfig()
			tc.mutate(&base)
			base.Workers = 1
			base.Tiled = false
			serial, err := Compute(g1, g2, base)
			if err != nil {
				t.Fatalf("serial Compute: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := base
				cfg.Workers = workers
				cfg.Tiled = true
				got, err := Compute(g1, g2, cfg)
				if err != nil {
					t.Fatalf("tiled workers=%d Compute: %v", workers, err)
				}
				requireBitIdentical(t, serial, got, fmt.Sprintf("tiled workers=%d", workers))
			}
		})
	}
}

// TestFastPathPrefilterHopeless covers the label-matrix pre-filter: on a
// frequency-filtered graph where a rare event loses all its in-edges
// (including the artificial one), every pair involving that event is
// provably stuck at similarity zero when its label part is zero, and the
// fast path deactivates those pairs before the first round. The skips must
// show up in the very first observation, and the frozen pairs must agree
// exactly with the exact fixpoint (which also leaves them at zero).
func TestFastPathPrefilterHopeless(t *testing.T) {
	mk := func(name, rare string) *eventlog.Log {
		l := eventlog.New(name)
		for i := 0; i < 9; i++ {
			l.Append(eventlog.Trace{"a", "b", "c"})
		}
		l.Append(eventlog.Trace{"a", rare, "c"})
		return l
	}
	build := func(l *eventlog.Log) *depgraph.Graph {
		t.Helper()
		g, err := depgraph.Build(l)
		if err != nil {
			t.Fatalf("Build %s: %v", l.Name, err)
		}
		ga, err := g.AddArtificial()
		if err != nil {
			t.Fatalf("AddArtificial %s: %v", l.Name, err)
		}
		// Threshold 0.2 removes every edge touching the rare event,
		// whose relative frequency is 0.1 — artificial edges included.
		return ga.FilterMinFrequency(0.2)
	}
	g1 := build(mk("L1", "d"))
	g2 := build(mk("L2", "e"))

	rare1 := -1
	for v, pre := range g1.Pre {
		if g1.Names[v] == "d" {
			rare1 = v
			if len(pre) != 0 {
				t.Fatalf("precondition: rare event %q still has %d in-edges after filtering", "d", len(pre))
			}
		}
	}
	if rare1 < 0 {
		t.Fatal("precondition: rare event missing from filtered graph")
	}

	cfg := fastConfig()
	cfg.Direction = Forward
	var first *RoundObservation
	cfg.OnRound = func(b *RoundBoundary) {
		if first == nil {
			first = &b.RoundObservation
		}
	}
	fast, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("fast Compute: %v", err)
	}
	if first == nil {
		t.Fatal("observer never called")
	}
	if first.Dirs[0].RoundPruned <= 0 {
		t.Errorf("first round pruned %d pairs, want > 0 (pre-filter did not fire)", first.Dirs[0].RoundPruned)
	}

	ecfg := DefaultConfig()
	ecfg.Direction = Forward
	exact, err := Compute(g1, g2, ecfg)
	if err != nil {
		t.Fatalf("exact Compute: %v", err)
	}
	// Every pair involving the dangling rare event must be exactly zero in
	// both results: the pre-filter is a proof, not an approximation.
	for j, name2 := range exact.Names2 {
		i := -1
		for k, n := range exact.Names1 {
			if n == "d" {
				i = k
			}
		}
		if i < 0 {
			t.Fatal("rare event missing from result names")
		}
		if e, f := exact.At(i, j), fast.At(i, j); e != 0 || f != 0 {
			t.Errorf("pair (d,%s): exact=%g fast=%g, want both 0", name2, e, f)
		}
	}
}
