package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/procgen"
)

// oracleTol is the convergence threshold of the Definition-2 oracle. Its
// distance to the true fixpoint is at most oracleTol*ac/(1-ac), a few 1e-12
// for every alpha and c of the sweep.
const oracleTol = 1e-12

// naiveFixpoint iterates Definition 2 for the graphs of one direction
// engine, pair by pair through definitionOneSides, from the cold start
// S^0(v^X, v^X) = 1 until no pair moves by more than oracleTol. It shares no
// code with the engine's kernel, pruning, estimate or certificate; the edge
// frequencies and the label part are read afresh from the graphs and
// cfg.Labels.
func naiveFixpoint(t *testing.T, e *dirEngine) []float64 {
	t.Helper()
	alpha, c, sim := e.cfg.Alpha, e.cfg.C, e.cfg.labels()
	lab := make([]float64, e.n1*e.n2)
	for v1 := 1; v1 < e.n1; v1++ {
		for v2 := 1; v2 < e.n2; v2++ {
			lab[v1*e.n2+v2] = sim(e.g1.Names[v1], e.g2.Names[v2])
		}
	}
	// agree[v1*n2+v2] lists the edge agreements of the pair's in-edge
	// pairs, row-major over the two pre-sets; they do not change between
	// rounds.
	agree := make([][]float64, e.n1*e.n2)
	for v1 := 1; v1 < e.n1; v1++ {
		for v2 := 1; v2 < e.n2; v2++ {
			for _, p1 := range e.g1.Pre[v1] {
				for _, p2 := range e.g2.Pre[v2] {
					ag := agreement(c, e.g1.EdgeFreq[p1][v1], e.g2.EdgeFreq[p2][v2])
					agree[v1*e.n2+v2] = append(agree[v1*e.n2+v2], ag)
				}
			}
		}
	}
	p := make([]float64, e.n1*e.n2)
	p[0] = 1
	next := make([]float64, len(p))
	var terms []float64
	for round := 1; round <= 100000; round++ {
		copy(next, p)
		delta := 0.0
		for v1 := 1; v1 < e.n1; v1++ {
			for v2 := 1; v2 < e.n2; v2++ {
				idx := v1*e.n2 + v2
				pre1, pre2 := e.g1.Pre[v1], e.g2.Pre[v2]
				terms = terms[:0]
				for i, p1 := range pre1 {
					for j, p2 := range pre2 {
						terms = append(terms, agree[idx][i*len(pre2)+j]*p[p1*e.n2+p2])
					}
				}
				s12, s21 := definitionOneSides(terms, len(pre1), len(pre2))
				next[idx] = alpha*(s12+s21)/2 + (1-alpha)*lab[idx]
				delta = max(delta, math.Abs(next[idx]-p[idx]))
			}
		}
		p, next = next, p
		if delta <= oracleTol {
			return p
		}
	}
	t.Fatal("Definition-2 oracle did not converge")
	return nil
}

// Graph shapes of the certificate sweep.
const (
	shapeAcyclic  = "acyclic"  // sequences and choices, no loop repeats
	shapeLoops    = "loops"    // adds loops, played out with repeats
	shapeParallel = "parallel" // procgen defaults: interleaved parallel branches and loops
)

// certGraphs builds a procgen pair of the given shape for the certificate
// sweep. Both cyclic shapes give the dependency graphs cycles; parallel
// interleavings also make them dense, like the bench pairs.
func certGraphs(t *testing.T, seed int64, activities int, shape string) (*depgraph.Graph, *depgraph.Graph) {
	t.Helper()
	if shape == shapeParallel {
		return procgenGraphs(t, seed, activities, activities)
	}
	rng := rand.New(rand.NewSource(seed))
	opts := procgen.DefaultOptions(activities)
	opts.AndWeight, opts.LoopProb = 0, 0
	po := procgen.PlayoutOptions{Traces: activities, XorSkew: 2}
	if shape == shapeLoops {
		opts.LoopProb = 0.3
		po.LoopRepeat, po.MaxLoop = 0.5, 3
	}
	spec, err := procgen.Generate(rng, opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var gs [2]*depgraph.Graph
	for i := range gs {
		l, err := spec.Playout(rng, fmt.Sprintf("L%d", i+1), po)
		if err != nil {
			t.Fatalf("Playout: %v", err)
		}
		g, err := depgraph.Build(l)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if gs[i], err = g.AddArtificial(); err != nil {
			t.Fatalf("AddArtificial: %v", err)
		}
	}
	return gs[0], gs[1]
}

// TestFastPathCertificateHonest is the certificate property test of the
// fast path: over a procgen sweep of alpha, c, budget, size (20 to 200
// activities), acyclic and cyclic graph shapes, and one and two workers, every run
// must publish an ErrorBound within its budget (unless it stopped at
// MaxRounds), and every per-direction similarity must lie within that bound
// of the naive Definition-2 fixpoint. The sweep must also reach the rounds
// certify adds after the residual pass; otherwise the loop would go
// untested.
func TestFastPathCertificateHonest(t *testing.T) {
	type sweepCase struct {
		activities int
		shape      string
		alpha, c   float64
		budget     float64
	}
	var cases []sweepCase
	for _, n := range []int{20, 60} {
		for _, shape := range []string{shapeAcyclic, shapeLoops, shapeParallel} {
			for _, alpha := range []float64{1, 0.7} {
				for _, c := range []float64{0.8, 0.5} {
					cases = append(cases, sweepCase{n, shape, alpha, c, 0})
				}
			}
			cases = append(cases, sweepCase{n, shape, 1, 0.8, 0.005})
		}
	}
	if !testing.Short() {
		cases = append(cases, sweepCase{200, shapeAcyclic, 1, 0.8, 0}, sweepCase{200, shapeLoops, 1, 0.8, 0})
	}
	looped, cyclic := 0, 0
	for k, sc := range cases {
		name := fmt.Sprintf("n=%d/%s/alpha=%g/c=%g/budget=%g", sc.activities, sc.shape, sc.alpha, sc.c, sc.budget)
		t.Run(name, func(t *testing.T) {
			g1, g2 := certGraphs(t, int64(100+k), sc.activities, sc.shape)
			l1, err := g1.LongestFromArtificial()
			if err != nil {
				t.Fatal(err)
			}
			l2, err := g2.LongestFromArtificial()
			if err != nil {
				t.Fatal(err)
			}
			// Small cyclic-shape models may happen to draw no loop or
			// parallel branch, so only the acyclic shape is a guarantee.
			bounded := convergenceBound(l1, l2) != depgraph.Infinite
			if !bounded {
				cyclic++
			} else if sc.shape != shapeAcyclic {
				t.Logf("the %s model drew no cycle", sc.shape)
			}
			if !bounded && sc.shape == shapeAcyclic {
				t.Fatal("precondition: an acyclic pair has an infinite convergence bound")
			}
			cfg := fastConfig()
			cfg.Alpha, cfg.C, cfg.FastPathBudget = sc.alpha, sc.c, sc.budget
			if sc.alpha < 1 {
				cfg.Labels = testLabelSim
			}
			budget := cfg.fastPathBudget()
			var oracle [][]float64
			var serial *Result
			for _, workers := range []int{1, 2} {
				cfg.Workers = workers
				c, err := NewComputation(g1, g2, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Drive the rounds by hand to see how many rounds certify
				// adds; Run drives the same Step/Finish sequence.
				for done := false; !done; {
					if done, err = c.Step(); err != nil {
						t.Fatal(err)
					}
				}
				extra := 0 // rounds certify adds, summed over directions
				for _, e := range c.engines() {
					extra -= e.round
				}
				r, err := c.Result()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range c.engines() {
					extra += e.round
				}
				if extra > 0 {
					looped++
				}
				t.Logf("workers=%d: rounds=%d (%d after the residual pass) estimated=%v bound=%.3g",
					workers, r.Rounds, extra, r.Estimated, r.ErrorBound)
				if r.ErrorBound > budget && r.Rounds < cfg.MaxRounds {
					t.Errorf("workers=%d: ErrorBound %g exceeds budget %g after %d rounds", workers, r.ErrorBound, budget, r.Rounds)
				}
				if oracle == nil {
					for _, e := range c.engines() {
						oracle = append(oracle, naiveFixpoint(t, e))
					}
				}
				for i, m := range [][]float64{r.Forward, r.Backward} {
					e := c.engines()[i]
					worst := 0.0
					for v1 := 1; v1 < e.n1; v1++ {
						for v2 := 1; v2 < e.n2; v2++ {
							got := m[(v1-1)*(e.n2-1)+v2-1]
							worst = max(worst, math.Abs(got-oracle[i][v1*e.n2+v2]))
						}
					}
					// The oracle itself sits within oracleTol*ac/(1-ac) of
					// the fixpoint; 1e-10 covers that and float rounding.
					if worst > r.ErrorBound+1e-10 {
						t.Errorf("workers=%d direction %d: max |Sim - oracle| = %g exceeds ErrorBound %g", workers, i, worst, r.ErrorBound)
					}
				}
				if serial == nil {
					serial = r
				} else {
					requireBitIdentical(t, serial, r, fmt.Sprintf("workers=%d", workers))
				}
			}
		})
	}
	if cyclic < len(cases)/3 {
		t.Errorf("only %d of %d pairs are cyclic", cyclic, len(cases))
	}
	if looped == 0 {
		t.Error("no run of the sweep needed exact rounds after the residual pass; the certificate loop went untested")
	}
}
