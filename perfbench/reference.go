package main

import (
	"fmt"
	"math"
	"strings"

	"repro/ems"
	"repro/internal/core"
	"repro/internal/depgraph"
)

// refResidual is the residual at which the reference evaluator stops: no
// pair moved by more than this in the last round.
const refResidual = 1e-9

// refConfig is the part of the similarity configuration the reference
// evaluator needs.
type refConfig struct {
	alpha, c float64
	labels   func(a, b string) float64 // nil: opaque names
}

// refResult is the reference similarity of two graphs plus its own error:
// no entry is further than tol from the exact fixpoint.
type refResult struct {
	names1, names2 []string
	sim            []float64
	tol            float64
}

// refSimilarity evaluates formula (1) of Definition 2 straight from the
// dependency graphs, in both directions, averaged. It shares no code with
// the engine: no agreement cache, pruning, tiling, workers, seeding or
// estimation. Each round is a Jacobi update of every real pair; iteration
// stops once no pair moved by more than refResidual, which by the Banach
// argument (the update is an (alpha*c)-contraction) leaves every entry
// within refResidual*ac/(1-ac) of the fixpoint.
func refSimilarity(g1, g2 *depgraph.Graph, cfg refConfig) (*refResult, error) {
	if !g1.HasArtificial || !g2.HasArtificial {
		return nil, fmt.Errorf("reference: graphs need the artificial event")
	}
	fwd := refDirection(g1, g2, cfg)
	bwd := refDirection(g1.Reverse(), g2.Reverse(), cfg)
	n1, n2 := g1.N(), g2.N()
	r := &refResult{names1: g1.Names[1:], names2: g2.Names[1:]}
	r.sim = make([]float64, 0, (n1-1)*(n2-1))
	for i := 1; i < n1; i++ {
		for j := 1; j < n2; j++ {
			r.sim = append(r.sim, (fwd[i*n2+j]+bwd[i*n2+j])/2)
		}
	}
	ac := cfg.alpha * cfg.c
	r.tol = refResidual * ac / (1 - ac)
	return r, nil
}

// refDirection iterates one direction (predecessor sets of g1, g2) to the
// residual and returns the full n1 x n2 matrix, artificial row and column
// included.
func refDirection(g1, g2 *depgraph.Graph, cfg refConfig) []float64 {
	n1, n2 := g1.N(), g2.N()
	// from[v] and freq[v] list v's in-neighbors and the frequencies of the
	// edges from them, read once from the graph.
	inEdges := func(g *depgraph.Graph) (from [][]int, freq [][]float64) {
		from, freq = make([][]int, g.N()), make([][]float64, g.N())
		for v := range from {
			for _, p := range g.Pre[v] {
				from[v] = append(from[v], p)
				freq[v] = append(freq[v], g.EdgeFreq[p][v])
			}
		}
		return from, freq
	}
	from1, freq1 := inEdges(g1)
	from2, freq2 := inEdges(g2)
	lab := make([]float64, n1*n2)
	if cfg.alpha < 1 && cfg.labels != nil {
		for i := 1; i < n1; i++ {
			for j := 1; j < n2; j++ {
				lab[i*n2+j] = cfg.labels(g1.Names[i], g2.Names[j])
			}
		}
	}
	cur := make([]float64, n1*n2)
	next := make([]float64, n1*n2)
	cur[0], next[0] = 1, 1 // S(vX, vX) = 1; artificial/real pairs stay 0
	best2 := make([]float64, n2)
	c := cfg.c
	for {
		residual := 0.0
		for i := 1; i < n1; i++ {
			for j := 1; j < n2; j++ {
				var s12, s21 float64
				if fj := from2[j]; len(from1[i]) > 0 && len(fj) > 0 {
					qj := freq2[j][:len(fj)]
					b2 := best2[:len(fj)]
					clear(b2)
					for a, p1 := range from1[i] {
						fa := freq1[i][a]
						row := cur[p1*n2 : (p1+1)*n2]
						best := 0.0
						for k, p2 := range fj {
							fb := qj[k]
							// C(...) = c * (1 - |f1-f2|/(f1+f2)), the edge agreement.
							v := c * (1 - math.Abs(fa-fb)/(fa+fb)) * row[p2]
							best = max(best, v)
							b2[k] = max(b2[k], v)
						}
						s12 += best
					}
					for _, b := range b2 {
						s21 += b
					}
					s12 /= float64(len(from1[i]))
					s21 /= float64(len(fj))
				}
				v := cfg.alpha*(s12+s21)/2 + (1-cfg.alpha)*lab[i*n2+j]
				residual = max(residual, math.Abs(v-cur[i*n2+j]))
				next[i*n2+j] = v
			}
		}
		cur, next = next, cur
		if residual <= refResidual {
			return cur
		}
	}
}

// engineTolerance is how far an exact run of the engine may land from the
// fixpoint: it stops once no pair moved by more than its epsilon in a
// round, which by the contraction argument leaves at most eps*ac/(1-ac).
func engineTolerance(alpha float64) float64 {
	c := core.DefaultConfig()
	ac := alpha * c.C
	return c.Epsilon * ac / (1 - ac)
}

// refGraphs builds the dependency graphs (with the artificial event) of a
// log pair the way a plain match does.
func refGraphs(l1, l2 *ems.Log) (*depgraph.Graph, *depgraph.Graph, error) {
	build := func(l *ems.Log) (*depgraph.Graph, error) {
		g, err := depgraph.Build(l)
		if err != nil {
			return nil, err
		}
		return g.AddArtificial()
	}
	g1, err := build(l1)
	if err != nil {
		return nil, nil, err
	}
	g2, err := build(l2)
	if err != nil {
		return nil, nil, err
	}
	return g1, g2, nil
}

// maxDeviation returns the largest |res.Sim - ref| over all pairs, matching
// entries by event name, or an error when the two disagree on the events.
func maxDeviation(res *ems.Result, ref *refResult) (float64, error) {
	if len(res.Names1) != len(ref.names1) || len(res.Names2) != len(ref.names2) {
		return 0, fmt.Errorf("result is %dx%d, reference %dx%d",
			len(res.Names1), len(res.Names2), len(ref.names1), len(ref.names2))
	}
	idx2 := make(map[string]int, len(ref.names2))
	for j, n := range ref.names2 {
		idx2[n] = j
	}
	rows := make(map[string]int, len(ref.names1))
	for i, n := range ref.names1 {
		rows[n] = i
	}
	worst := 0.0
	for i, a := range res.Names1 {
		ri, ok := rows[a]
		if !ok {
			return 0, fmt.Errorf("result event %q is not in the reference", a)
		}
		for j, b := range res.Names2 {
			rj, ok := idx2[b]
			if !ok {
				return 0, fmt.Errorf("result event %q is not in the reference", b)
			}
			worst = math.Max(worst, math.Abs(res.At(i, j)-ref.sim[ri*len(ref.names2)+rj]))
		}
	}
	return worst, nil
}

// checkProperties verifies what every match result must satisfy whatever
// the engine mode: similarities in [0,1], an injective mapping (no matrix
// node in two correspondences), and every mapped name an event of its
// input log. It returns how many events a side maps more than once: a
// composite node and the event's remaining single node can both be
// selected, which puts one event into two correspondences. Plain matching
// has no composites, so there the count is always 0.
func checkProperties(res *ems.Result, l1, l2 *ems.Log) (sharedEvents int, err error) {
	if len(res.Sim) != len(res.Names1)*len(res.Names2) {
		return 0, fmt.Errorf("sim has %d entries for %dx%d events", len(res.Sim), len(res.Names1), len(res.Names2))
	}
	for k, v := range res.Sim {
		if !(v >= 0 && v <= 1) {
			return 0, fmt.Errorf("sim[%d] = %g is outside [0,1]", k, v)
		}
	}
	type side struct {
		alphabet     map[string]bool
		nodes, names map[string]int
	}
	newSide := func(l *ems.Log) side {
		s := side{alphabet: make(map[string]bool), nodes: make(map[string]int), names: make(map[string]int)}
		for _, e := range l.Alphabet() {
			s.alphabet[e] = true
		}
		return s
	}
	sides := [2]side{newSide(l1), newSide(l2)}
	for _, c := range res.Mapping {
		for i, group := range [2][]string{c.Left, c.Right} {
			s := sides[i]
			node := strings.Join(group, "\x00")
			if s.nodes[node]++; s.nodes[node] > 1 {
				return 0, fmt.Errorf("node %v is mapped twice", group)
			}
			for _, n := range group {
				if !s.alphabet[n] {
					return 0, fmt.Errorf("mapped name %q is not an event of its log", n)
				}
				if s.names[n]++; s.names[n] == 2 {
					sharedEvents++
				}
			}
		}
	}
	return sharedEvents, nil
}
