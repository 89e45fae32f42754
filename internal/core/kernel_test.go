package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeAgreement returns C(v1,v1',v2,v2') for the in-edges (p1,v1) of g1
// and (p2,v2) of g2. Both edges must exist.
func (e *dirEngine) edgeAgreement(p1, v1, p2, v2 int) float64 {
	return agreement(e.cfg.C, e.g1.EdgeFreq[p1][v1], e.g2.EdgeFreq[p2][v2])
}

// naiveOneSides is s(v1,v2) and s(v2,v1) of Definition 2 written straight
// from the definition: the builtin max, edgeAgreement, and the n1 x n2
// matrix p in place of the engine's prev.
func naiveOneSides(e *dirEngine, p []float64, v1, v2 int) (s12, s21 float64) {
	pre1, pre2 := e.g1.Pre[v1], e.g2.Pre[v2]
	terms := make([]float64, 0, len(pre1)*len(pre2))
	for _, p1 := range pre1 {
		for _, p2 := range pre2 {
			terms = append(terms, e.edgeAgreement(p1, v1, p2, v2)*p[p1*e.n2+p2])
		}
	}
	return definitionOneSides(terms, len(pre1), len(pre2))
}

// definitionOneSides evaluates Definition 2 from the a x b row-major matrix
// of terms C(...)*S(pre1[i], pre2[j]): for each in-neighbor of one event the
// best term against the in-neighbors of the other (builtin max, starting at
// 0), summed in pre-set order and averaged.
func definitionOneSides(terms []float64, a, b int) (s12, s21 float64) {
	if a == 0 || b == 0 {
		return 0, 0
	}
	for i := 0; i < a; i++ {
		best := 0.0
		for j := 0; j < b; j++ {
			best = max(best, terms[i*b+j])
		}
		s12 += best
	}
	for j := 0; j < b; j++ {
		best := 0.0
		for i := 0; i < a; i++ {
			best = max(best, terms[i*b+j])
		}
		s21 += best
	}
	return s12 / float64(a), s21 / float64(b)
}

// kernelTestMatrix returns a logical n1 x n2 prev matrix mixing uniform
// values in [0,1) with the inputs an ordering on bit patterns must get
// right: +0 and -0, subnormals, exact ties, values above 1, rare infinities,
// and negative entries such as a label similarity outside its [0,1]
// contract can produce.
func kernelTestMatrix(rng *rand.Rand, n1, n2 int) []float64 {
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030,
		0.5, 0.25, 1, 1.5, 7,
		-0.25, -1e-300, -0x1p-1060,
	}
	p := make([]float64, n1*n2)
	for i := range p {
		switch r := rng.Intn(2000); {
		case r == 0:
			p[i] = math.Inf(1)
		case r == 1:
			p[i] = math.Inf(-1)
		case r < 1000:
			p[i] = special[rng.Intn(len(special))]
		default:
			p[i] = rng.Float64()
		}
	}
	return p
}

// kernelAxis lists the kernels the kernel tests run: the cost rule's own
// choice (no name suffix) and each kernel forced through kernelOverride.
var kernelAxis = []struct {
	k      kernel
	suffix string
}{{kernelRule, ""}, {kernelClassic, "/kernel=classic"}, {kernelFactored, "/kernel=factored"}}

// forceKernel sets kernelOverride for the rest of the test.
func forceKernel(t *testing.T, k kernel) {
	old := kernelOverride
	kernelOverride = k
	t.Cleanup(func() { kernelOverride = old })
}

// TestKernelMatchesDefinition requires the formula-(1) kernels to reproduce
// the naive Definition-2 evaluation bit for bit on random procgen graphs:
// through oneSides directly and through a full round of either kernel, with
// and without the agreement cache and at one and two workers. The dense
// size is one on which the cost rule picks the factored kernel by itself.
func TestKernelMatchesDefinition(t *testing.T) {
	for _, size := range []struct {
		seed       int64
		activities int
		traces     int
	}{{3, 20, 60}, {4, 70, 60}, {5, 80, 100}} {
		g1, g2 := procgenGraphs(t, size.seed, size.activities, size.traces)
		for _, cached := range []bool{true, false} {
			// Tiled is deprecated and ignored; the kernel must follow the
			// definition whether or not a caller still sets it.
			for _, tiled := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					for _, ka := range kernelAxis {
						name := fmt.Sprintf("n=%d/cached=%v/tiled=%v/workers=%d%s", size.activities, cached, tiled, workers, ka.suffix)
						if size.traces != 60 {
							name = fmt.Sprintf("n=%d/traces=%d/cached=%v/tiled=%v/workers=%d%s", size.activities, size.traces, cached, tiled, workers, ka.suffix)
						}
						t.Run(name, func(t *testing.T) {
							if !cached {
								old := agreeCacheLimit
								agreeCacheLimit = 0
								defer func() { agreeCacheLimit = old }()
							}
							forceKernel(t, ka.k)
							cfg := DefaultConfig()
							cfg.Prune = false
							cfg.Tiled = tiled
							cfg.Workers = workers
							c, err := NewComputation(g1, g2, cfg, nil)
							if err != nil {
								t.Fatal(err)
							}
							rng := rand.New(rand.NewSource(size.seed))
							for _, e := range c.engines() {
								checkKernel(t, e, rng, cached, workers)
								want := ka.k
								if !cached || want == kernelRule && size.traces == 60 {
									want = kernelClassic
								} else if want == kernelRule {
									want = kernelFactored
								}
								if e.kernel != want {
									t.Fatalf("engine ran kernel %d, want %d", e.kernel, want)
								}
							}
						})
					}
				}
			}
		}
	}
}

func checkKernel(t *testing.T, e *dirEngine, rng *rand.Rand, cached bool, workers int) {
	t.Helper()
	if (e.agreeRows != nil) != cached {
		t.Fatalf("agreement cache present = %v, want %v", e.agreeRows != nil, cached)
	}
	if e.workers != workers {
		t.Fatalf("engine runs %d workers, want %d", e.workers, workers)
	}
	p := kernelTestMatrix(rng, e.n1, e.n2)
	copy(e.cur, p)
	// The round copies cur into prev and evaluates every real pair.
	if _, err := e.step(); err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v1 := 1; v1 < e.n1; v1++ {
		for v2 := 1; v2 < e.n2; v2++ {
			want12, want21 := naiveOneSides(e, p, v1, v2)
			if math.IsNaN(want12) || math.IsNaN(want21) {
				t.Fatalf("(%d,%d): the oracle produced NaN; the test inputs must avoid it", v1, v2)
			}
			got12, got21 := e.oneSides(v1, v2, (v1+v2)%workers)
			if !same(got12, want12) || !same(got21, want21) {
				t.Fatalf("(%d,%d): oneSides = (%x, %x), definition gives (%x, %x)", v1, v2, got12, got21, want12, want21)
			}
			want := e.cfg.Alpha*(want12+want21)/2 + (1-e.cfg.Alpha)*e.lab[v1*e.n2+v2]
			if got := e.cur[v1*e.n2+v2]; !same(got, want) {
				t.Fatalf("(%d,%d): round wrote %x, definition gives %x", v1, v2, got, want)
			}
		}
	}
}

// TestEstimationCoefficientsMatchDefinition requires the (a, q) of formula
// (2) to equal, bit for bit, their definition with the artificial in-edges
// looked up in the graphs' frequency maps, for every real pair of both
// direction engines, with and without the label part.
func TestEstimationCoefficientsMatchDefinition(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 80, 100)
	for _, alpha := range []float64{1, 0.7} {
		cfg := DefaultConfig()
		cfg.Alpha = alpha
		cfg.Labels = testLabelSim
		c, err := NewComputation(g1, g2, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.engines() {
			for v1 := 1; v1 < e.n1; v1++ {
				for v2 := 1; v2 < e.n2; v2++ {
					A, B := float64(len(e.g1.Pre[v1])), float64(len(e.g2.Pre[v2]))
					lab := (1 - alpha) * e.lab[v1*e.n2+v2]
					wantA, wantQ := lab, 0.0
					if A > 0 && B > 0 {
						wantQ = alpha * e.cfg.C * (2*A*B - A - B) / (2 * A * B)
						var cx float64
						_, ok1 := e.g1.Freq(0, v1)
						_, ok2 := e.g2.Freq(0, v2)
						if ok1 && ok2 {
							cx = e.edgeAgreement(0, v1, 0, v2)
						}
						wantA = alpha*(A+B)/(2*A*B)*cx + lab
					}
					a, q := e.estimationCoefficients(v1, v2)
					if math.Float64bits(a) != math.Float64bits(wantA) || math.Float64bits(q) != math.Float64bits(wantQ) {
						t.Fatalf("alpha=%g (%d,%d): (a, q) = (%x, %x), definition gives (%x, %x)", alpha, v1, v2, a, q, wantA, wantQ)
					}
				}
			}
		}
	}
}
