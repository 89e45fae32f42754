package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveOneSides is s(v1,v2) and s(v2,v1) of Definition 2 written straight
// from the definition: the builtin max, edgeAgreement, and the logical
// n1 x n2 matrix p in place of the engine's prev layout.
func naiveOneSides(e *dirEngine, p []float64, v1, v2 int) (s12, s21 float64) {
	pre1, pre2 := e.g1.Pre[v1], e.g2.Pre[v2]
	if len(pre1) == 0 || len(pre2) == 0 {
		return 0, 0
	}
	term := func(p1, p2 int) float64 {
		return e.edgeAgreement(p1, v1, p2, v2) * p[p1*e.n2+p2]
	}
	for _, p1 := range pre1 {
		best := 0.0
		for _, p2 := range pre2 {
			best = max(best, term(p1, p2))
		}
		s12 += best
	}
	for _, p2 := range pre2 {
		best := 0.0
		for _, p1 := range pre1 {
			best = max(best, term(p1, p2))
		}
		s21 += best
	}
	return s12 / float64(len(pre1)), s21 / float64(len(pre2))
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

// TestKernelMatchesDefinition requires the formula-(1) kernel to reproduce
// the naive Definition-2 evaluation bit for bit on random procgen graphs:
// through oneSides directly and through a full round, with and without the
// agreement cache, in both layouts and at one and two workers.
func TestKernelMatchesDefinition(t *testing.T) {
	for _, size := range []struct {
		seed       int64
		activities int
	}{{3, 20}, {4, 70}} {
		g1, g2 := procgenGraphs(t, size.seed, size.activities, 60)
		for _, cached := range []bool{true, false} {
			for _, tiled := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("n=%d/cached=%v/tiled=%v/workers=%d", size.activities, cached, tiled, workers)
					t.Run(name, func(t *testing.T) {
						if !cached {
							old := agreeCacheLimit
							agreeCacheLimit = 0
							defer func() { agreeCacheLimit = old }()
						}
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
						}
					})
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
	for i := 0; i < e.n1; i++ {
		for j := 0; j < e.n2; j++ {
			e.cur[e.rowOff[i]+e.colOff[j]] = p[i*e.n2+j]
		}
	}
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
			if got := e.cur[e.rowOff[v1]+e.colOff[v2]]; !same(got, want) {
				t.Fatalf("(%d,%d): round wrote %x, definition gives %x", v1, v2, got, want)
			}
		}
	}
}
