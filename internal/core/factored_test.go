package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/depgraph"
)

// TestFactoredMatchesClassic runs whole computations with each kernel
// forced and requires the same bits and counters: with frozen rows and
// columns holding seeded values, with Proposition-2 pruning on acyclic
// graphs (finite l(v)), with both together, and on the fast path, each at
// one, two and three workers.
func TestFactoredMatchesClassic(t *testing.T) {
	dense := func(t *testing.T) (*depgraph.Graph, *depgraph.Graph) { return procgenGraphs(t, 5, 80, 100) }
	acyclic := func(t *testing.T) (*depgraph.Graph, *depgraph.Graph) {
		return certGraphs(t, 11, 60, 60, shapeAcyclic)
	}
	cases := []struct {
		name   string
		graphs func(*testing.T) (*depgraph.Graph, *depgraph.Graph)
		freeze bool
		fast   bool
		prunes bool
	}{
		{"frozen", dense, true, false, false},
		{"pruned", acyclic, false, false, true},
		{"frozen+pruned", acyclic, true, false, true},
		{"fastpath", dense, false, true, false},
	}
	for _, tc := range cases {
		g1, g2 := tc.graphs(t)
		for _, workers := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.FastPath = tc.fast
				var res [2]*Result
				for i, k := range []kernel{kernelClassic, kernelFactored} {
					forceKernel(t, k)
					c, err := NewComputation(g1, g2, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if tc.freeze {
						freezeSome(c)
					}
					if err := c.Run(); err != nil {
						t.Fatal(err)
					}
					for _, e := range c.engines() {
						if e.kernel != k {
							t.Fatalf("engine ran kernel %d, want %d", e.kernel, k)
						}
					}
					if res[i], err = c.Result(); err != nil {
						t.Fatal(err)
					}
				}
				requireBitIdentical(t, res[0], res[1], "factored")
				for i := range res[0].Sim {
					if math.Float64bits(res[0].Sim[i]) != math.Float64bits(res[1].Sim[i]) {
						t.Fatalf("Sim[%d]: factored %x, classic %x", i, res[1].Sim[i], res[0].Sim[i])
					}
				}
				if res[0].Pruned != res[1].Pruned || res[0].ErrorBound != res[1].ErrorBound {
					t.Fatalf("factored pruned %d, bound %g; classic %d, %g",
						res[1].Pruned, res[1].ErrorBound, res[0].Pruned, res[0].ErrorBound)
				}
				if tc.prunes && res[0].Pruned == 0 {
					t.Fatal("precondition: the acyclic pair prunes no pair")
				}
			})
		}
	}
}

// freezeSome freezes every third row and every fourth column of each
// engine and gives every real pair a seeded value, as a Proposition-4 seed
// would, so frozen cells feed their neighbors values other than zero.
func freezeSome(c *Computation) {
	for _, e := range c.engines() {
		rng := rand.New(rand.NewSource(int64(e.n1*e.n2 + e.n1)))
		for v1 := 1; v1 < e.n1; v1++ {
			e.frozen1[v1] = v1%3 == 1
			for v2 := 1; v2 < e.n2; v2++ {
				e.cur[v1*e.n2+v2] = rng.Float64()
			}
		}
		for v2 := 1; v2 < e.n2; v2++ {
			e.frozen2[v2] = v2%4 == 2
		}
	}
}

// TestKernelRulePicks pins the cost rule's choice: the factored kernel for
// a dense cold pair, the classic kernel for a sparse cold pair, for a pair
// whose factored products would be 95% of the classic ones, and for the
// dense pair seeded as composite matching seeds a merge candidate
// (Proposition 4, all but a few rows fixed). The key tables exist only for
// the factored kernel.
func TestKernelRulePicks(t *testing.T) {
	dense1, dense2 := procgenGraphs(t, 5, 80, 100)
	sparse1, sparse2 := procgenGraphs(t, 4, 70, 60)
	near1, near2 := procgenGraphs(t, 2014, 90, 120)
	cfg := DefaultConfig()
	prev, err := Compute(dense1, dense2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixed := make([]bool, dense1.N())
	for v := 4; v < dense1.N(); v++ {
		fixed[v] = true
	}
	for _, tc := range []struct {
		name   string
		g1, g2 *depgraph.Graph
		seed   *Seed
		want   kernel
	}{
		{"dense", dense1, dense2, nil, kernelFactored},
		{"sparse", sparse1, sparse2, nil, kernelClassic},
		{"near-parity", near1, near2, nil, kernelClassic},
		{"dense/seeded", dense1, dense2, &Seed{From: prev, Side: 1, Fixed: [2][]bool{fixed, fixed}}, kernelClassic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewComputation(tc.g1, tc.g2, cfg, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range c.engines() {
				if e.kernel != kernelRule || e.fk != nil {
					t.Fatal("kernel chosen before the first round")
				}
			}
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
			for _, e := range c.engines() {
				if e.kernel != tc.want {
					t.Errorf("rule picked kernel %d, want %d", e.kernel, tc.want)
				}
				if (e.fk != nil) != (tc.want == kernelFactored) {
					t.Errorf("key tables built = %v for kernel %d", e.fk != nil, e.kernel)
				}
				if e.fk == nil {
					continue
				}
				// The rule counts the keys the tables are built from.
				_, k1 := countKeys(e.g1, false, e.frozen1)
				_, k2 := countKeys(e.g2, false, e.frozen2)
				if len(e.fk.src1) != int(k1) || len(e.fk.keys2) != int(k2) {
					t.Errorf("tables hold %d and %d keys, the rule counted %d and %d",
						len(e.fk.src1), len(e.fk.keys2), k1, k2)
				}
			}
		})
	}
}

// TestFactoredStopInEachPhase fires the stop hook at the chunk check of
// each phase of a factored round. The round must return the StopError
// without counting its evaluations, and the computation must refuse to
// publish its partial matrices. At one worker the cells show where the
// round stopped: a phase-1 stop leaves cur equal to prev, and a phase-2
// stop leaves phase 1's sums in it.
func TestFactoredStopInEachPhase(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 80, 100)
	cause := errors.New("stop in phase")
	for _, workers := range []int{1, 2} {
		// One round consults the hook once at its start, then once per
		// chunk: workers chunks in phase 1, then workers in phase 2.
		for phase := 1; phase <= 2; phase++ {
			t.Run(fmt.Sprintf("workers=%d/phase=%d", workers, phase), func(t *testing.T) {
				forceKernel(t, kernelFactored)
				var calls, fireAt atomic.Int64
				cfg := DefaultConfig()
				cfg.Direction = Forward
				cfg.Workers = workers
				cfg.Stop = func() error {
					if n := calls.Add(1); fireAt.Load() > 0 && n >= fireAt.Load() {
						return cause
					}
					return nil
				}
				c, err := NewComputation(g1, g2, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Let one whole round pass, then stop the second one.
				if _, err := c.Step(); err != nil {
					t.Fatal(err)
				}
				e := c.fwd
				evals := e.evals
				fireAt.Store(calls.Load() + 2 + int64((phase-1)*workers))
				if _, err := c.Step(); !errors.Is(err, ErrStopped) || !errors.Is(err, cause) {
					t.Fatalf("Step = %v, want a StopError wrapping the cause", err)
				}
				if e.kernel != kernelFactored {
					t.Fatalf("engine ran kernel %d, want the factored one", e.kernel)
				}
				// Later chunks of the stopped phase may still consult the
				// hook before the stop is latched.
				if n, first := calls.Load(), fireAt.Load(); n < first || n > first+int64(workers)-1 {
					t.Errorf("hook consulted %d times, want %d to %d", n, first, first+int64(workers)-1)
				}
				if e.evals != evals {
					t.Errorf("stopped round counted %d evaluations", e.evals-evals)
				}
				if workers == 1 {
					same := true
					for i := range e.cur {
						same = same && math.Float64bits(e.cur[i]) == math.Float64bits(e.prev[i])
					}
					if same != (phase == 1) {
						t.Errorf("cur equals prev = %v after a phase-%d stop", same, phase)
					}
				}
				if _, err := c.Result(); !errors.Is(err, ErrStopped) {
					t.Fatalf("Result after a stop = %v, want ErrStopped", err)
				}
			})
		}
	}
}

// TestCountKeysOfReversal: the cost model counts the keys of a backward
// engine on the forward graph; the count must equal the engine's own count
// over the materialized reversal.
func TestCountKeysOfReversal(t *testing.T) {
	g, _ := procgenGraphs(t, 5, 80, 100)
	e1, k1 := countKeys(g, true, nil)
	e2, k2 := countKeys(g.Reverse(), false, nil)
	if e1 != e2 || k1 != k2 {
		t.Fatalf("reversed count %d edges, %d keys; count over the reversal %d, %d", e1, k1, e2, k2)
	}
	if k1 == 0 || k1 >= e1 {
		t.Fatalf("precondition: %d keys over %d edges share nothing", k1, e1)
	}
}
