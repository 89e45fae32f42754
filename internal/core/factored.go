package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/depgraph"
)

// kernel names a formula-(1) kernel.
type kernel uint8

const (
	// kernelRule is the zero value: an engine that has not chosen yet, and
	// as kernelOverride, leaving the choice to chooseKernel's cost rule.
	kernelRule kernel = iota
	// kernelClassic evaluates each pair on its own (oneSides).
	kernelClassic
	// kernelFactored shares row and column maxima across pairs through
	// in-edge keys (factoredStep).
	kernelFactored
)

// kernelOverride forces the kernel of every engine that chooses after it is
// set; kernelRule leaves the choice to the cost rule. A variable so tests
// can run either kernel on any input. The factored kernel reads the
// agreement cache, so an engine without it runs the classic kernel.
var kernelOverride = kernelRule

// factored holds the key tables of the factored kernel. An in-edge (p→v) of
// a pre-set has the key (p, f): its source and its frequency. The best term
// of an in-edge of v1 against the in-neighbors of v2 depends on the edge
// only through its key, and so does the best term of an in-edge of v2
// against the in-neighbors of v1. Only the in-edges of unfrozen rows and
// columns are keyed.
type factored struct {
	// g1 keys, ascending by source: key k has source row offset src1[k] =
	// p*n2 and frequency class phi1[k] (an agreeRows index). Its consumers,
	// the rows with an in-edge of key k, are cons1[start1[k]:start1[k+1]].
	src1   []int
	phi1   []int32
	start1 []int32
	cons1  []int32
	// g2 keys, ascending by source: key k has source column keys2[k].q and
	// keys2[k].rep, the agreement-row index of one of its edges; all its
	// edges share the frequency, so they share the agreement factor.
	keys2 []key2
	// key2[aOff2[v2]+j] is the g2 key of the j-th in-edge of v2.
	key2 []int32
	// live1 and live2 mark the rows and columns a round evaluates.
	live1, live2 []bool
	// tBuf[w] (n2 entries) and uBuf[w] (one per g2 key) are worker w's
	// row and column maxima, as int64 bit patterns like oneSides' maxima.
	tBuf, uBuf [][]int64
}

// key2 is a g2 key of the factored kernel.
type key2 struct{ q, rep int32 }

// inEdge is an in-edge (p→v) seen from its source p: Pre[v][pos] == p, and
// f is its frequency.
type inEdge struct {
	f      float64
	v, pos int32
}

// sourceGroups calls fn for every source vertex p of g in ascending order
// with p's out-edges into the unfrozen vertices, ordered by frequency, so
// that the edges of one key are adjacent. inF holds the in-edge
// frequencies aligned with the pre-sets. Frequencies compare with ==, as
// the agreement cache's frequency classes do. fn must not retain es.
func sourceGroups(g *depgraph.Graph, frozen []bool, inF [][]float64, fn func(p int, es []inEdge)) {
	var es []inEdge
	for p, post := range g.Post {
		es = es[:0]
		for _, v := range post {
			if frozen[v] {
				continue
			}
			pos, _ := slices.BinarySearch(g.Pre[v], p)
			es = append(es, inEdge{f: inF[v][pos], v: int32(v), pos: int32(pos)})
		}
		slices.SortFunc(es, func(a, b inEdge) int { return cmp.Compare(a.f, b.f) })
		fn(p, es)
	}
}

// newKey reports whether es[i] starts a key of its source group.
func newKey(es []inEdge, i int) bool { return i == 0 || es[i].f != es[i-1].f }

// countKeys returns the number of in-edges into the live vertices of g, or
// of its reversal when reversed, and the number of their distinct keys. A
// vertex is live unless frozen marks it; a nil frozen marks only the
// artificial vertex, as on a cold start. It reads the graph alone, so the
// cost model counts keys as chooseKernel does without building an engine.
func countKeys(g *depgraph.Graph, reversed bool, frozen []bool) (edges, keys int64) {
	var buf [64]float64 // one source's frequencies; more spill to the heap
	for p := range g.N() {
		fs := buf[:0]
		if reversed {
			for _, v := range g.Pre[p] {
				if v != 0 && (frozen == nil || !frozen[v]) {
					fs = append(fs, g.EdgeFreq[v][p])
				}
			}
		} else {
			for _, v := range g.Post[p] {
				if v != 0 && (frozen == nil || !frozen[v]) {
					fs = append(fs, g.EdgeFreq[p][v])
				}
			}
		}
		slices.Sort(fs)
		edges += int64(len(fs))
		for i := range fs {
			if i == 0 || fs[i] != fs[i-1] {
				keys++
			}
		}
	}
	return edges, keys
}

// factoredWins is the kernel selection rule. Over the unfrozen rows and
// columns, with e1, e2 in-edges and k1, k2 distinct keys, a round of the
// classic kernel computes e1*e2 products and the factored kernel k1*e2 for
// the row maxima plus e1*k2 for the column maxima. The factored kernel runs
// when it computes less than nine tenths of the classic products. Timed
// round by round on one worker over 29 generated pairs, it was faster on
// every pair below that line, by 4-58%; between nine tenths and parity the
// two kernels came within 7% of each other either way, and the classic one
// needs no key tables. On 21 generated 200-activity pairs, the 11 whose
// keys are 16-45% of their edges take the factored kernel and the 10 at
// 48-61% keep the classic one; a seed that leaves a few live rows leaves
// keys that are nearly all distinct.
func factoredWins(e1, k1, e2, k2 int64) bool {
	return 10*(k1*e2+e1*k2) < 9*e1*e2
}

// chooseKernel picks the engine's kernel once, at its first round, when the
// frozen rows and columns of a seed are known: the classic kernel without
// the agreement cache, else the cost rule unless kernelOverride forces a
// kernel. The key tables are built only for the factored kernel.
func (e *dirEngine) chooseKernel() {
	e.kernel = kernelClassic
	if e.agreeRows == nil {
		return
	}
	e1, k1 := countKeys(e.g1, false, e.frozen1)
	e2, k2 := countKeys(e.g2, false, e.frozen2)
	use := kernelOverride
	if use == kernelRule {
		use = kernelClassic
		if factoredWins(e1, k1, e2, k2) {
			use = kernelFactored
		}
	}
	if use == kernelFactored {
		e.kernel = kernelFactored
		e.buildFactored(e1, k1, k2)
	}
}

// buildFactored builds the key tables of the factored kernel for e1 g1
// in-edges in k1 keys and k2 g2 keys (see countKeys).
func (e *dirEngine) buildFactored(e1, k1, k2 int64) {
	e2all := 0 // every in-edge of g2 has a slot in an agreement row
	for _, pre := range e.preCol2 {
		e2all += len(pre)
	}
	fk := &factored{
		src1:   make([]int, 0, k1),
		phi1:   make([]int32, 0, k1),
		start1: make([]int32, 0, k1+1),
		cons1:  make([]int32, 0, e1),
		keys2:  make([]key2, 0, k2),
		key2:   make([]int32, e2all),
		live1:  make([]bool, e.n1),
		live2:  make([]bool, e.n2),
		tBuf:   make([][]int64, e.workers),
		uBuf:   make([][]int64, e.workers),
	}
	sourceGroups(e.g1, e.frozen1, e.inF1, func(p int, es []inEdge) {
		for i, ed := range es {
			if newKey(es, i) {
				fk.src1 = append(fk.src1, p*e.n2)
				fk.phi1 = append(fk.phi1, e.fIdx1[ed.v][ed.pos])
				fk.start1 = append(fk.start1, int32(len(fk.cons1)))
			}
			fk.cons1 = append(fk.cons1, ed.v)
		}
	})
	fk.start1 = append(fk.start1, int32(len(fk.cons1)))
	sourceGroups(e.g2, e.frozen2, e.inF2, func(q int, es []inEdge) {
		for i, ed := range es {
			at := e.aOff2[ed.v] + ed.pos
			if newKey(es, i) {
				fk.keys2 = append(fk.keys2, key2{q: int32(q), rep: at})
			}
			fk.key2[at] = int32(len(fk.keys2) - 1)
		}
	})
	e.fk = fk
}

// factoredStep is one round of formula (1) with the factored kernel; step
// has already copied cur into prev. The g1 key k = (p, φ) has the row maxima
//
//	T[k][v2] = max_j C(φ, ψ_j)·S(p, q_j)   over the in-edges (q_j→v2)
//
// and the g2 key κ = (q, ψ) the column maxima
//
//	U[v1][κ] = max_i C(φ_i, ψ)·S(p_i, q)   over the in-edges (p_i→v1),
//
// so s(v1,v2) = Σ_i T[k(v1,i)][v2] / |•v1| and s(v2,v1) = Σ_j U[v1][κ(v2,j)]
// / |•v2|. The products and maxima are the classic kernel's, and the sums
// add the same terms in the same pre-set order, so every pair gets the
// same bits as from oneSides.
//
// Phase 1 splits the columns over the workers. For each g1 key in key
// order it computes the T row and adds it into the cur cells of the key's
// live consumer rows, which serve as the s(v1,v2) accumulators: prev holds
// the copy of the previous iterate. Keys ascend by source and a pre-set
// ascends too, so each pair's terms arrive in pre-set order. Phase 2 splits
// the rows: per live row it computes U over all g2 keys, then finishes each
// pair and restores the cells of columns that are frozen or pruned.
func (e *dirEngine) factoredStep() {
	fk := e.fk
	n2 := e.n2
	for v1 := range fk.live1 {
		fk.live1[v1] = !e.skipVertex(e.frozen1, e.l1, v1)
	}
	for v2 := range fk.live2 {
		fk.live2[v2] = !e.skipVertex(e.frozen2, e.l2, v2)
	}
	prev, cur := e.prev, e.cur
	e.forRows(1, n2, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		if fk.tBuf[w] == nil {
			fk.tBuf[w] = make([]int64, n2)
		}
		t := fk.tBuf[w][lo:hi]
		for v1 := 1; v1 < e.n1; v1++ {
			if fk.live1[v1] {
				clear(cur[v1*n2+lo : v1*n2+hi])
			}
		}
		for k, base := range fk.src1 {
			agree := e.agreeRows[fk.phi1[k]]
			row := prev[base : base+n2]
			for c := range t {
				v2 := lo + c
				cols := e.preCol2[v2]
				var best int64
				if fk.live2[v2] && len(cols) > 0 {
					off := int(e.aOff2[v2])
					r := agree[off : off+len(cols)]
					for j, q := range cols {
						best = max(best, int64(math.Float64bits(r[j]*row[q])))
					}
				}
				t[c] = best
			}
			for _, v1 := range fk.cons1[fk.start1[k]:fk.start1[k+1]] {
				if !fk.live1[v1] {
					continue
				}
				acc := cur[int(v1)*n2+lo : int(v1)*n2+hi][:len(t)]
				for c, b := range t {
					acc[c] += math.Float64frombits(uint64(b))
				}
			}
		}
	})
	if e.stopErr() != nil {
		return
	}
	e.forRows(1, e.n1, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		if fk.uBuf[w] == nil {
			fk.uBuf[w] = make([]int64, len(fk.keys2))
		}
		u := fk.uBuf[w][:len(fk.keys2)]
		var maxDelta float64
		evals := 0
		for v1 := lo; v1 < hi; v1++ {
			if !fk.live1[v1] {
				continue
			}
			rows, fids := e.preRow1[v1], e.fIdx1[v1]
			clear(u)
			for i, base := range rows {
				agree := e.agreeRows[fids[i]]
				row := prev[base : base+n2]
				for k, key := range fk.keys2 {
					u[k] = max(u[k], int64(math.Float64bits(agree[key.rep]*row[key.q])))
				}
			}
			for v2 := 1; v2 < n2; v2++ {
				idx := v1*n2 + v2
				if !fk.live2[v2] {
					cur[idx] = prev[idx]
					continue
				}
				cols := e.preCol2[v2]
				var s12, s21 float64
				if len(rows) > 0 && len(cols) > 0 {
					off := int(e.aOff2[v2])
					var sum2 float64
					for _, k := range fk.key2[off : off+len(cols)] {
						sum2 += math.Float64frombits(uint64(u[k]))
					}
					s12, s21 = cur[idx]/float64(len(rows)), sum2/float64(len(cols))
				}
				v := e.cfg.Alpha*(s12+s21)/2 + (1-e.cfg.Alpha)*e.lab[idx]
				evals++
				if d := math.Abs(v - prev[idx]); d > maxDelta {
					maxDelta = d
				}
				cur[idx] = v
			}
		}
		if maxDelta > e.deltaW[w] {
			e.deltaW[w] = maxDelta
		}
		e.evalW[w] += evals
	})
}
