package core

import (
	"repro/internal/depgraph"
)

// CostEstimate predicts the peak working-set of a similarity computation
// before any of it is allocated. It is the contract between the parser and
// the resource governor: the server calls EstimateCost on the freshly built
// dependency graphs, compares Bytes against its memory budget, and only
// then lets NewComputation allocate the matrices.
//
// The prediction covers the engine's own O(n1*n2) state — similarity
// matrices, label matrix, agreement cache, pre-set tables — which
// dominates peak heap for any non-trivial pair. It deliberately does
// not model the parsed logs or graphs themselves (already resident when the
// estimate is made) nor allocator slack; callers wanting headroom apply
// their own safety factor on top.
type CostEstimate struct {
	// Bytes is the predicted peak engine heap across all direction engines.
	Bytes int64
	// Evals is an upper bound on formula-(1) evaluations: active pairs per
	// direction times the convergence bound. Pruning and the estimation
	// cutover only ever reduce it.
	Evals int64
	// Directions holds the per-direction breakdown (one entry for Forward
	// or Backward, two for Both).
	Directions []DirCost
}

// DirCost itemizes one direction engine's predicted footprint.
type DirCost struct {
	N1, N2 int
	// MatrixBytes covers cur+prev and — for the first direction only, the
	// second shares it — the label matrix. The frozen row and column masks
	// are O(n1+n2) and left out.
	MatrixBytes int64
	// AgreeBytes is the agreement cache: the factor table plus the fIdx1 /
	// aOff2 index arrays, zero when the table would exceed agreeCacheLimit
	// and the engine falls back to on-the-fly factors.
	AgreeBytes int64
	// EdgeBytes covers the pre-translated pre-set offset/frequency tables
	// and per-worker scratch.
	EdgeBytes int64
	// Rounds is the convergence bound min(MaxRounds, l-derived bound).
	Rounds int
}

// Total is this direction's predicted bytes.
func (d DirCost) Total() int64 { return d.MatrixBytes + d.AgreeBytes + d.EdgeBytes }

// EstimateCost predicts the peak memory and evaluation count of
// Compute(g1, g2, cfg) from graph dimensions alone. Both graphs must
// already carry the artificial event (as they do by the time the server
// has built them); the estimate is cheap — O(V+E) per direction — and
// never allocates matrix-sized state itself.
func EstimateCost(g1, g2 *depgraph.Graph, cfg Config) CostEstimate {
	var ce CostEstimate
	switch cfg.Direction {
	case Forward:
		ce.Directions = []DirCost{estimateDir(g1, g2, cfg, false, true)}
	case Backward:
		ce.Directions = []DirCost{estimateDir(g1, g2, cfg, true, true)}
	default: // Both: the backward engine shares the forward label matrix
		ce.Directions = []DirCost{
			estimateDir(g1, g2, cfg, false, true),
			estimateDir(g1, g2, cfg, true, false),
		}
	}
	for _, d := range ce.Directions {
		ce.Bytes += d.Total()
		// Active pairs: every real×real pair, once per round.
		ce.Evals += int64(d.N1-1) * int64(d.N2-1) * int64(d.Rounds)
	}
	return ce
}

// estimateDir models one dirEngine. reversed mirrors Computation's Both
// wiring: the backward engine runs over Reverse()d graphs, so its in-edge
// structures are the forward graphs' out-edges; ownsLab is false for the
// engine that shares the other's label matrix. The math reads straight off
// newDirEngine/buildPreSets/buildAgreementCache; keep them in sync.
func estimateDir(g1, g2 *depgraph.Graph, cfg Config, reversed, ownsLab bool) DirCost {
	n1, n2 := g1.N(), g2.N()
	d := DirCost{N1: n1, N2: n2}
	cells := int64(n1) * int64(n2)

	// cur + prev; lab is allocated regardless of Alpha, once per
	// Computation.
	d.MatrixBytes = 2 * 8 * cells
	if ownsLab {
		d.MatrixBytes += 8 * cells
	}

	// Pre-set tables. In-edges of the (possibly reversed) graphs: each g1
	// edge contributes one int offset + one float64 frequency, each g2 edge
	// one float64 frequency (preCol2 shares the graph's pre-sets), plus the
	// slice headers.
	e1 := edgeEntries(g1, reversed)
	e2 := edgeEntries(g2, reversed)
	const sliceHeader = 24
	d.EdgeBytes = 16*e1 + 8*e2 + // preRow1/inF1 + inF2 payloads
		4*sliceHeader*int64(n1+n2) + // their slice headers (2 per vertex per side)
		8*int64(n1) // rowSum (lazy, but counts toward peak)
	// Per-worker scratch: one row of the largest g2 pre-set each.
	workers := resolveWorkers(cfg, n1, n2)
	d.EdgeBytes += int64(workers) * 8 * maxInDegree(g2, reversed)

	// Agreement cache: |distinct in-edge freqs of g1| × E2 factors, plus the
	// fIdx1/aOff2 indexes, unless past the limit (then the engine drops it).
	distinct := distinctEdgeFreqs(g1, reversed)
	if distinct*e2 <= agreeCacheLimit {
		d.AgreeBytes = 8*distinct*e2 + 4*e1 + 4*int64(n2) +
			sliceHeader*distinct // table row headers
	}

	d.Rounds = convergenceRounds(g1, g2, cfg, reversed)
	return d
}

// edgeEntries counts the in-edge pre-set entries the engine will table for
// one graph: sum of pre-set sizes over real vertices (out-edges when the
// direction runs over the reversed graph).
func edgeEntries(g *depgraph.Graph, reversed bool) int64 {
	adj := g.Pre
	if reversed {
		adj = g.Post
	}
	var total int64
	for v := 1; v < g.N(); v++ {
		total += int64(len(adj[v]))
	}
	return total
}

// maxInDegree is the largest pre-set size of one graph (post-set when
// reversed) — the per-worker scratch row length.
func maxInDegree(g *depgraph.Graph, reversed bool) int64 {
	adj := g.Pre
	if reversed {
		adj = g.Post
	}
	max := 0
	for v := 1; v < g.N(); v++ {
		if len(adj[v]) > max {
			max = len(adj[v])
		}
	}
	return int64(max)
}

// distinctEdgeFreqs counts the distinct in-edge frequencies of g (out-edge
// when reversed) — the agreement table's row count.
func distinctEdgeFreqs(g *depgraph.Graph, reversed bool) int64 {
	seen := make(map[float64]struct{})
	if reversed {
		// Reversed in-edges of v are the forward out-edges (v,u): their
		// frequencies live in EdgeFreq[v].
		for v := 1; v < g.N(); v++ {
			for u, f := range g.EdgeFreq[v] {
				if u == 0 {
					continue
				}
				seen[f] = struct{}{}
			}
		}
	} else {
		for v := 1; v < g.N(); v++ {
			for _, p := range g.Pre[v] {
				seen[g.EdgeFreq[p][v]] = struct{}{}
			}
		}
	}
	return int64(len(seen))
}

// convergenceRounds predicts the round bound of one direction:
// min(MaxRounds, convergenceBound over the longest-distance functions). An
// unbounded l (cycles) leaves MaxRounds. Errors computing l (no artificial
// event yet) also fall back to MaxRounds — the estimate must never fail.
func convergenceRounds(g1, g2 *depgraph.Graph, cfg Config, reversed bool) int {
	rounds := cfg.MaxRounds
	if rounds <= 0 {
		rounds = DefaultConfig().MaxRounds
	}
	if reversed {
		// l over the reversed graph needs the reversal materialized; the
		// backward bound is structurally similar to the forward one, and the
		// estimate only needs an upper bound, so reuse MaxRounds here.
		return rounds
	}
	l1, err1 := g1.LongestFromArtificial()
	l2, err2 := g2.LongestFromArtificial()
	if err1 != nil || err2 != nil {
		return rounds
	}
	if b := convergenceBound(l1, l2); b < rounds {
		return b
	}
	return rounds
}
