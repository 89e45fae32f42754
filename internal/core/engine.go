package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/depgraph"
	"repro/internal/failpoint"
)

// dirEngine computes the forward similarity of Definition 2 for one
// direction between two dependency graphs that both carry the artificial
// event at index 0. Backward similarity is obtained by constructing a
// dirEngine over the reversed graphs.
type dirEngine struct {
	g1, g2 *depgraph.Graph
	cfg    Config

	n1, n2 int
	// lab[i*n2+j] is the label similarity of vertex i of g1 and j of g2
	// (zero rows/columns for the artificial vertices). Read-only once built:
	// Graph.Reverse keeps names and their order, so both direction engines
	// of a Computation share one matrix.
	lab []float64
	// l1, l2 are the longest distances l(v) from the artificial event.
	l1, l2 []int
	// cur and prev are the S^i and S^{i-1} matrices over all vertex pairs,
	// row-major: the cell (i,j) lives at i*n2+j.
	cur, prev []float64
	// preRow1[v1][i] = g1.Pre[v1][i]*n2 is the pre-set pre-multiplied into
	// row offsets (preCol2[v2] is g2.Pre[v2] itself), so the innermost
	// similarity loop does one add per cell instead of an index computation.
	preRow1, preCol2 [][]int
	// inF1[v]/inF2[v] are the in-edge frequencies aligned with Pre[v],
	// extracted once from the EdgeFreq maps so the agreement-cache build is
	// pure arithmetic instead of millions of map lookups.
	inF1, inF2 [][]float64
	// frozen1[v1] and frozen2[v2] mark the rows and columns that are never
	// updated: pair (v1,v2) is frozen iff frozen1[v1] || frozen2[v2]. The
	// artificial row and column are always frozen; a Proposition-4 seed
	// freezes the rows or columns whose value a merge left unchanged.
	frozen1, frozen2 []bool

	// Agreement cache. The edge-agreement factor C(...) = c*(1-|f1-f2|/(f1+f2))
	// depends only on the two edge frequencies, and a graph has few distinct
	// in-edge frequencies, so the cache is deduplicated by f1:
	// agreeRows[fIdx1[v1][i]][aOff2[v2]+j] is the factor for the i-th
	// in-neighbor of v1 against the j-th in-neighbor of v2. That is
	// |distinct f1| x E2 entries instead of E1 x E2 — typically a few MB
	// that stay cache-hot across rounds instead of tens of MB streamed cold
	// every round — and the build does one division per table cell instead
	// of one per edge pair. agreeRows is nil when even the deduplicated
	// table would exceed agreeCacheLimit (see buildAgreementCache).
	agreeRows [][]float64
	fIdx1     [][]int32
	aOff2     []int32

	// workers is the effective worker count; pool is nil when workers == 1
	// (the serial path). The pool is shared with the other direction's
	// engine of the same Computation.
	workers int
	pool    *rowPool
	// bufs[w] is the oneSides scratch of worker w; deltaW[w] and evalW[w]
	// accumulate worker w's max increment and evaluation count of a round.
	// Rows are distributed over workers, so every per-pair write lands in a
	// disjoint location and the only cross-worker reductions are max and
	// integer sum — both order-independent, keeping results bit-identical to
	// the serial path.
	bufs   [][]int64
	deltaW []float64
	evalW  []int
	// rowSum[v1] holds the per-row partial of upperBoundSum; summing rows in
	// index order makes the bound independent of the partition too.
	rowSum []float64

	// stopped latches the first StopError observed by any goroutine of this
	// engine; once set, every later check returns it without re-invoking the
	// hook, and partially written matrices are never published.
	stopped atomic.Pointer[StopError]

	round     int
	evals     int // number of formula-(1) evaluations performed
	converged bool
	estimated bool
	// roundEvals and roundPruned are the latest round's evaluation and
	// prune-skip counts, surfaced through Config.OnRound; totalPruned
	// accumulates the skips. Every active (non-frozen) pair is either
	// evaluated or prune-skipped in a round, so pruned = activePairs() -
	// roundEvals without touching the hot loop.
	roundEvals  int
	roundPruned int
	totalPruned int
	// lastDelta is the maximum pair increment observed in the latest round.
	// Lemma 5's induction step shows increments contract by alpha*c per
	// round, so all future growth is bounded by lastDelta*ac/(1-ac) — a
	// much tighter upper-bound ingredient than (alpha*c)^round once the
	// iteration is nearly converged.
	lastDelta float64
	warmed    bool // a warm start voids increment-based bounds
	// bound is min over the graphs of the max finite l(v); Infinite when a
	// cycle makes both sides unbounded.
	bound int

	// Fast-path state (Config.FastPath). fast is armed when FastPath is on
	// and no explicit EstimateI overrides it; budget is the resolved error
	// budget. cutover latches once the contraction bound of a round fits
	// half the budget; it reads only the order-independent global max delta,
	// so fast-path decisions are bit-identical at every worker count.
	// errorBound is the certified a-posteriori bound once computed (see
	// certify); certified latches the certification.
	fast       bool
	budget     float64
	cutover    bool
	errorBound float64
	certified  bool
}

// newDirEngine builds the per-direction engine. Both graphs must contain the
// artificial event. pool may be nil (serial) and is shared between the two
// direction engines of a Computation, as is lab: nil builds the label
// matrix, non-nil is the other engine's matrix over the same names.
func newDirEngine(g1, g2 *depgraph.Graph, cfg Config, pool *rowPool, lab []float64) (*dirEngine, error) {
	if !g1.HasArtificial || !g2.HasArtificial {
		return nil, fmt.Errorf("core: similarity requires graphs with the artificial event (use Graph.AddArtificial)")
	}
	l1, err := g1.LongestFromArtificial()
	if err != nil {
		return nil, err
	}
	l2, err := g2.LongestFromArtificial()
	if err != nil {
		return nil, err
	}
	e := &dirEngine{
		g1: g1, g2: g2, cfg: cfg,
		n1: g1.N(), n2: g2.N(),
		l1: l1, l2: l2,
		pool: pool, workers: 1,
	}
	if pool != nil {
		e.workers = pool.workers
	}
	e.bufs = make([][]int64, e.workers)
	e.deltaW = make([]float64, e.workers)
	e.evalW = make([]int, e.workers)
	e.buildPreSets()
	e.lab = lab
	if lab == nil {
		e.buildLabels()
	}
	e.cur = make([]float64, e.n1*e.n2)
	e.prev = make([]float64, e.n1*e.n2)
	// Initialization: S^0(v^X, v^X) = 1; artificial/real pairs stay 0 and
	// are never updated.
	e.cur[0] = 1
	e.frozen1 = make([]bool, e.n1)
	e.frozen2 = make([]bool, e.n2)
	e.frozen1[0], e.frozen2[0] = true, true
	e.bound = convergenceBound(l1, l2)
	e.fast = cfg.FastPath && cfg.EstimateI < 0
	if e.fast {
		e.budget = cfg.fastPathBudget()
	}
	endSpan := e.span("agreement-cache")
	e.buildAgreementCache()
	endSpan()
	if err := e.stopErr(); err != nil {
		return nil, err
	}
	return e, nil
}

// buildLabels fills the label matrix S^L over the real vertex pairs; with
// Alpha = 1 labels are ignored and the matrix stays zero.
func (e *dirEngine) buildLabels() {
	e.lab = make([]float64, e.n1*e.n2)
	if e.cfg.Alpha >= 1 {
		return
	}
	sim := e.cfg.labels()
	defer e.span("label-matrix")()
	e.forRows(1, e.n1, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		for i := lo; i < hi; i++ {
			for j := 1; j < e.n2; j++ {
				e.lab[i*e.n2+j] = sim(e.g1.Names[i], e.g2.Names[j])
			}
		}
	})
}

// buildPreSets tables the graphs' pre-sets for the hot inner loop: g1's
// pre-multiplied into row offsets, both with their in-edge frequencies.
func (e *dirEngine) buildPreSets() {
	e.preRow1 = make([][]int, e.n1)
	e.inF1 = make([][]float64, e.n1)
	for v := 1; v < e.n1; v++ {
		pre := e.g1.Pre[v]
		if len(pre) == 0 {
			continue
		}
		offs := make([]int, len(pre))
		fs := make([]float64, len(pre))
		for i, p := range pre {
			offs[i] = p * e.n2
			fs[i] = e.g1.EdgeFreq[p][v]
		}
		e.preRow1[v] = offs
		e.inF1[v] = fs
	}
	e.preCol2 = make([][]int, e.n2)
	e.inF2 = make([][]float64, e.n2)
	for v := 1; v < e.n2; v++ {
		pre := e.g2.Pre[v]
		if len(pre) == 0 {
			continue
		}
		fs := make([]float64, len(pre))
		for j, p := range pre {
			fs[j] = e.g2.EdgeFreq[p][v]
		}
		e.preCol2[v] = pre
		e.inF2[v] = fs
	}
}

// checkStop consults the cooperative stop hook. The first non-nil cause is
// latched so every later check — from any worker goroutine — returns the
// same typed error without re-invoking the hook. It is called once per round
// and once per row-chunk; a stopped chunk simply returns, leaving matrices
// partially written, which is safe because a stopped computation only ever
// propagates the error and never publishes results.
func (e *dirEngine) checkStop() error {
	if p := e.stopped.Load(); p != nil {
		return p
	}
	if e.cfg.Stop == nil {
		return nil
	}
	if cause := e.cfg.Stop(); cause != nil {
		e.stopped.CompareAndSwap(nil, &StopError{Cause: cause})
		return e.stopped.Load()
	}
	return nil
}

// span opens a tracing span via the Config.Span hook; a no-op func when the
// hook is unarmed.
func (e *dirEngine) span(name string) func() {
	if e.cfg.Span == nil {
		return func() {}
	}
	return e.cfg.Span(name)
}

// stopErr returns the latched stop error without consulting the hook.
func (e *dirEngine) stopErr() error {
	if p := e.stopped.Load(); p != nil {
		return p
	}
	return nil
}

// agreeCacheLimit caps the total number of cached agreement factors
// (|distinct f1| * E2 entries); beyond it the engine computes factors on the
// fly. It is a variable so tests can force the fallback path.
var agreeCacheLimit int64 = 1 << 24

// buildAgreementCache precomputes the deduplicated agreement table: one row
// of E2 factors per distinct in-edge frequency of g1 (frequency indices are
// assigned in deterministic pre-set order). Disabled when the table would
// exceed agreeCacheLimit.
func (e *dirEngine) buildAgreementCache() {
	// Assign a dense index to every distinct in-edge frequency of g1.
	fIdx := make(map[float64]int32)
	var distinct []float64
	e.fIdx1 = make([][]int32, e.n1)
	for v1 := 1; v1 < e.n1; v1++ {
		f1s := e.inF1[v1]
		if len(f1s) == 0 {
			continue
		}
		ids := make([]int32, len(f1s))
		for i, f := range f1s {
			id, ok := fIdx[f]
			if !ok {
				id = int32(len(distinct))
				fIdx[f] = id
				distinct = append(distinct, f)
			}
			ids[i] = id
		}
		e.fIdx1[v1] = ids
	}
	// Per-v2 offsets into each table row: prefix sums of the pre-set sizes.
	e.aOff2 = make([]int32, e.n2)
	e2 := 0
	for v2 := 0; v2 < e.n2; v2++ {
		f2s := e.inF2[v2]
		if v2 == 0 || len(f2s) == 0 {
			e.aOff2[v2] = -1
			continue
		}
		e.aOff2[v2] = int32(e2)
		e2 += len(f2s)
	}
	if int64(len(distinct))*int64(e2) > agreeCacheLimit {
		e.fIdx1, e.aOff2 = nil, nil
		return
	}
	rows := make([][]float64, len(distinct))
	e.forRows(0, len(distinct), func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		c := e.cfg.C
		for fi := lo; fi < hi; fi++ {
			f1 := distinct[fi]
			row := make([]float64, e2)
			for v2 := 1; v2 < e.n2; v2++ {
				off := e.aOff2[v2]
				if off < 0 {
					continue
				}
				for j, f2 := range e.inF2[v2] {
					row[int(off)+j] = agreement(c, f1, f2)
				}
			}
			rows[fi] = row
		}
	})
	e.agreeRows = rows
}

// convergenceBound returns min(max_v1 l(v1), max_v2 l(v2)) over finite
// values, or Infinite when a side has any infinite l... per Proposition 2 the
// whole computation is guaranteed to stop after that many rounds.
func convergenceBound(l1, l2 []int) int {
	maxOf := func(l []int) int {
		m := 0
		for _, v := range l {
			if v > m {
				m = v
			}
		}
		return m
	}
	return min(maxOf(l1), maxOf(l2))
}

// activePairs is the number of pairs a round updates: the unfrozen rows
// times the unfrozen columns.
func (e *dirEngine) activePairs() int {
	return (e.n1 - trues(e.frozen1)) * (e.n2 - trues(e.frozen2))
}

func trues(mask []bool) int {
	n := 0
	for _, f := range mask {
		if f {
			n++
		}
	}
	return n
}

// edgeAgreement returns C(v1,v1',v2,v2') for the in-edges (p1,v1) of g1
// and (p2,v2) of g2. Both edges must exist.
func (e *dirEngine) edgeAgreement(p1, v1, p2, v2 int) float64 {
	return agreement(e.cfg.C, e.g1.EdgeFreq[p1][v1], e.g2.EdgeFreq[p2][v2])
}

// agreement is the edge-agreement factor c * (1 - |f1-f2|/(f1+f2)) of two
// edge frequencies, 0 when both are 0.
func agreement(c, f1, f2 float64) float64 {
	sum := f1 + f2
	if sum == 0 {
		return 0
	}
	return c * (1 - math.Abs(f1-f2)/sum)
}

// oneSides computes s(v1,v2) and s(v2,v1) of Definition 2 from the prev
// matrix in one pass: for each in-neighbor of one event, the best
// edge-weighted similarity against the in-neighbors of the other, averaged.
// w selects the calling worker's scratch buffer.
//
// Both maxima run on the IEEE-754 bit patterns of the products read as
// signed int64. For non-negative floats the patterns order like the values,
// and every pattern with the sign bit set (the negatives and -0) reads below
// the pattern of +0, which is 0. So an integer max that starts at 0 equals
// the builtin max(0.0, ...) bit for bit for every non-NaN product, at one
// compare and conditional move instead of the builtin's NaN and signed-zero
// handling. A NaN whose sign bit is set reads as 0 (one without it wins,
// as with the builtin); label.Similarity is documented as [0,1], and no
// in-contract input produces NaN. The sums add the maxima in pre-set order,
// so both results equal Definition 2 evaluated with the builtin max, bit for
// bit (TestKernelMatchesDefinition).
func (e *dirEngine) oneSides(v1, v2, w int) (s12, s21 float64) {
	rows := e.preRow1[v1]
	cols := e.preCol2[v2]
	if len(rows) == 0 || len(cols) == 0 {
		return 0, 0
	}
	best2 := e.bufs[w]
	if cap(best2) < len(cols) {
		best2 = make([]int64, len(cols))
		e.bufs[w] = best2
	}
	best2 = best2[:len(cols)]
	clear(best2)
	// Branchless inner kernel: a zero prev entry yields a zero product,
	// which never beats the running maxima, so the products are computed
	// unconditionally. Reslicing the agreement row per outer step lets the
	// compiler drop the bounds checks on r[j] and best2[j].
	prev := e.prev
	var sum1 float64
	if e.agreeRows != nil {
		off := int(e.aOff2[v2])
		fids := e.fIdx1[v1]
		for i, base := range rows {
			r := e.agreeRows[fids[i]][off : off+len(cols)]
			var best int64
			for j, c := range cols {
				v := int64(math.Float64bits(r[j] * prev[base+c]))
				best = max(best, v)
				best2[j] = max(best2[j], v)
			}
			sum1 += math.Float64frombits(uint64(best))
		}
	} else {
		// Without the agreement cache the factors are computed on the fly.
		c := e.cfg.C
		f1s, f2s := e.inF1[v1], e.inF2[v2][:len(cols)]
		for i, base := range rows {
			f1 := f1s[i]
			var best int64
			for j, col := range cols {
				v := int64(math.Float64bits(agreement(c, f1, f2s[j]) * prev[base+col]))
				best = max(best, v)
				best2[j] = max(best2[j], v)
			}
			sum1 += math.Float64frombits(uint64(best))
		}
	}
	var sum2 float64
	for _, b := range best2 {
		sum2 += math.Float64frombits(uint64(b))
	}
	return sum1 / float64(len(rows)), sum2 / float64(len(cols))
}

// step performs one iteration round (formula (1)) over all non-frozen real
// pairs and returns the maximum absolute change. When pruning is enabled,
// pairs already past their convergence bound are skipped. A stop requested
// via Config.Stop aborts the round — checked once at round start and once
// per row-chunk — and returns the latched StopError.
//
// The round is a Jacobi update: every pair reads only the immutable prev
// matrix, so rows are distributed over the worker pool. Within a row the
// float additions happen in the same order as the serial path, cur writes
// are disjoint, and the cross-row reductions (max increment, evaluation
// count) are order-independent — results are bit-identical for any worker
// count.
func (e *dirEngine) step() (float64, error) {
	e.round++
	f := failpoint.Fire(failpoint.EngineRound, e.round)
	time.Sleep(f.Delay) // a zero delay returns at once
	if f.Err != nil {
		panic(f.Err)
	}
	if err := e.checkStop(); err != nil {
		return 0, err
	}
	copy(e.prev, e.cur)
	for w := 0; w < e.workers; w++ {
		e.deltaW[w] = 0
		e.evalW[w] = 0
	}
	e.forRows(1, e.n1, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		var maxDelta float64
		evals := 0
		for v1 := lo; v1 < hi; v1++ {
			if e.frozen1[v1] {
				continue
			}
			row := v1 * e.n2
			for v2 := 1; v2 < e.n2; v2++ {
				if e.frozen2[v2] {
					continue
				}
				idx := row + v2
				if e.cfg.Prune && e.round > min(e.l1[v1], e.l2[v2]) {
					continue
				}
				s12, s21 := e.oneSides(v1, v2, w)
				v := e.cfg.Alpha*(s12+s21)/2 + (1-e.cfg.Alpha)*e.lab[idx]
				evals++
				if d := math.Abs(v - e.prev[idx]); d > maxDelta {
					maxDelta = d
				}
				e.cur[idx] = v
			}
		}
		if maxDelta > e.deltaW[w] {
			e.deltaW[w] = maxDelta
		}
		e.evalW[w] += evals
	})
	if err := e.stopErr(); err != nil {
		return 0, err
	}
	var maxDelta float64
	for _, d := range e.deltaW {
		if d > maxDelta {
			maxDelta = d
		}
	}
	roundEvals := 0
	for _, n := range e.evalW {
		roundEvals += n
	}
	e.evals += roundEvals
	e.roundEvals = roundEvals
	e.roundPruned = e.activePairs() - roundEvals
	e.totalPruned += e.roundPruned
	e.lastDelta = maxDelta
	if e.fast && !e.cutover {
		e.updateCutover(maxDelta)
	}
	return maxDelta, nil
}

// updateCutover latches the fast path's cutover once the round's global max
// increment delta proves the iteration nearly converged. Formula (1) is an
// (alpha*c)-contraction in the sup norm, so the current iterate lies within
// delta*ac/(1-ac) of the fixpoint (Banach); once that is within half the
// budget, the per-pair estimate of Section 3.5 replaces the remaining
// rounds. The fit needs two exact iterates. Reading only the
// order-independent global max delta keeps the cutover round identical at
// every worker count.
func (e *dirEngine) updateCutover(delta float64) {
	ac := e.cfg.Alpha * e.cfg.C
	if e.round >= 2 && delta*ac/(1-ac) <= e.budget/2 {
		e.cutover = true
	}
}

// done reports whether iteration may stop: epsilon convergence, the
// early-convergence bound, or the hard round cap.
func (e *dirEngine) doneAfter(delta float64) bool {
	if delta <= e.cfg.Epsilon {
		e.converged = true
		return true
	}
	if e.cfg.Prune && e.bound != depgraph.Infinite && e.round >= e.bound {
		e.converged = true
		return true
	}
	return e.round >= e.cfg.MaxRounds
}

// iterLimit is the exact-round cap: MaxRounds, lowered to EstimateI when
// Algorithm 1 fixes the cutover round.
func (e *dirEngine) iterLimit() int {
	limit := e.cfg.MaxRounds
	if e.cfg.EstimateI >= 0 && e.cfg.EstimateI < limit {
		limit = e.cfg.EstimateI
	}
	return limit
}

// iterDone reports whether exact iteration is over: epsilon/bound
// convergence, the round cap, or the fast path's adaptive cutover.
func (e *dirEngine) iterDone() bool {
	return e.converged || e.cutover || e.round >= e.iterLimit()
}

// run iterates to completion, honoring the exact/estimation trade-off when
// cfg.EstimateI >= 0 (Algorithm 1) and the adaptive fast path (FastPath).
// It returns the StopError when the computation was aborted through
// Config.Stop.
func (e *dirEngine) run() error {
	// A checkpoint-restored engine may already be converged (or past its
	// cutover) with round < limit; stepping it again would perturb the
	// published values.
	for !e.iterDone() {
		delta, err := e.step()
		if err != nil {
			return err
		}
		if e.doneAfter(delta) {
			break
		}
	}
	return e.finish()
}

// finish completes the non-iterative tail of a run: the closed-form
// estimation pass when one is owed (explicit EstimateI, or a fast-path
// cutover) and, on the fast path, the certification. Idempotent — estimate
// and certify both latch.
func (e *dirEngine) finish() error {
	if !e.converged && (e.cfg.EstimateI >= 0 || e.cutover) {
		if err := e.estimate(); err != nil {
			return err
		}
	}
	if e.fast {
		return e.certify()
	}
	return nil
}

// certify computes the fast path's certificate. After a round with maximum
// increment delta the iterate lies within delta*ac/(1-ac) of the fixpoint
// (the a-posteriori Banach bound, valid from any start), so:
//
//   - a run that Proposition 2 proved converged (Prune, round >= bound) is
//     exact and certifies 0;
//   - an estimated run, or one that has not iterated yet, first runs one
//     ordinary round, counted like any other;
//   - the bound is then the last round's delta*ac/(1-ac), which covers an
//     epsilon-converged run without a further round.
//
// While the bound exceeds the budget, further exact rounds run, each
// replacing the bound with its own. The loop stops once the bound fits the
// budget or at MaxRounds, so Result.ErrorBound exceeds the budget only on a
// run that hit the round cap.
func (e *dirEngine) certify() error {
	if e.certified {
		return e.stopErr()
	}
	e.certified = true
	if e.cfg.Prune && e.bound != depgraph.Infinite && e.round >= e.bound {
		return nil
	}
	if e.estimated || e.round == 0 {
		if _, err := e.step(); err != nil {
			return err
		}
	}
	ac := e.cfg.Alpha * e.cfg.C
	e.errorBound = e.lastDelta * ac / (1 - ac)
	for e.errorBound > e.budget && e.round < e.cfg.MaxRounds {
		delta, err := e.step()
		if err != nil {
			return err
		}
		e.errorBound = delta * ac / (1 - ac)
	}
	return nil
}

// estimate applies the closed-form estimation of Section 3.5 to every pair
// that has not converged after the exact rounds: with A = |•v1|, B = |•v2|,
// q = alpha*c*(2AB-A-B)/(2AB) and a = alpha*(A+B)/(2AB)*C_x + (1-alpha)*S^L,
// the estimate after h rounds is q^(h-I)*S^I + a*(1-q^(h-I))/(1-q), where
// C_x is the edge-agreement of the artificial in-edges and h is the pair's
// convergence bound min(l(v1), l(v2)) (the limit a/(1-q) when unbounded).
//
// Two refinements tighten the estimate without leaving the paper's
// framework (the paper leaves the estimation bound as future work): on a
// cold start the exact S^I is a lower bound of the limit (Theorem 1
// monotonicity), so the estimate is clamped from below; and when two exact
// iterates are available (I >= 2), the recurrence constant a is fitted per
// pair from the observed step a = S^I - q*S^(I-1) instead of assuming every
// edge agreement reaches its maximum c — the fitted recurrence has the same
// closed form and converges to the exact similarity as I grows.
func (e *dirEngine) estimate() error {
	if e.estimated {
		return e.stopErr()
	}
	e.estimated = true
	if err := e.checkStop(); err != nil {
		return err
	}
	I := e.round
	// Each pair's estimate depends only on its own cur/prev entries, so the
	// rows parallelize like step().
	e.forRows(1, e.n1, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		for v1 := lo; v1 < hi; v1++ {
			if e.frozen1[v1] {
				continue
			}
			for v2 := 1; v2 < e.n2; v2++ {
				if e.frozen2[v2] {
					continue
				}
				idx := v1*e.n2 + v2
				h := min(e.l1[v1], e.l2[v2])
				if h <= I {
					continue // already exact
				}
				a, q := e.estimationCoefficients(v1, v2)
				if I >= 2 {
					if fit := e.cur[idx] - q*e.prev[idx]; fit >= 0 {
						a = fit
					}
				}
				var est float64
				if h == depgraph.Infinite {
					est = a / (1 - q)
				} else {
					pw := math.Pow(q, float64(h-I))
					est = pw*e.cur[idx] + a*(1-pw)/(1-q)
				}
				// A warm start voids monotonicity: its fixpoint may sit
				// below the seeded iterate.
				if !e.warmed && est < e.cur[idx] {
					est = e.cur[idx]
				}
				e.cur[idx] = clamp01(est)
			}
		}
	})
	return e.stopErr()
}

// estimationCoefficients returns (a, q) of formula (2) for the pair (v1,v2).
func (e *dirEngine) estimationCoefficients(v1, v2 int) (a, q float64) {
	A := float64(len(e.g1.Pre[v1]))
	B := float64(len(e.g2.Pre[v2]))
	if A == 0 || B == 0 {
		// No structural contribution at all: the fixpoint is the label part.
		return (1 - e.cfg.Alpha) * e.lab[v1*e.n2+v2], 0
	}
	q = e.cfg.Alpha * e.cfg.C * (2*A*B - A - B) / (2 * A * B)
	var cx float64
	_, ok1 := e.g1.Freq(0, v1)
	_, ok2 := e.g2.Freq(0, v2)
	if ok1 && ok2 {
		cx = e.edgeAgreement(0, v1, 0, v2)
	}
	a = e.cfg.Alpha*(A+B)/(2*A*B)*cx + (1-e.cfg.Alpha)*e.lab[v1*e.n2+v2]
	return a, q
}

// upperBoundSum returns the sum over all real pairs of the similarity upper
// bounds after the current round k: S^k + ((ac)^k - (ac)^h)/(1-ac) with
// h = min(l(v1), l(v2)) (Corollary 7), falling back to the unbounded form of
// Proposition 6 when h is infinite, each clamped to 1.
func (e *dirEngine) upperBoundSum() (float64, error) {
	if err := e.checkStop(); err != nil {
		return 0, err
	}
	ac := e.cfg.Alpha * e.cfg.C
	k := float64(e.round)
	ack := math.Pow(ac, k)
	// Increment-contraction cap (Lemma 5 induction): after a round with
	// maximum increment d, future rounds add at most d*(ac + ac^2 + ...).
	// Monotone increments require a cold start, so warm-started engines
	// fall back to the geometric bound alone.
	deltaCap := math.Inf(1)
	if e.round >= 1 && !e.warmed {
		deltaCap = e.lastDelta * ac / (1 - ac)
	}
	// Bounds are accumulated per row and the row partials reduced in index
	// order, so the (non-associative) float sum groups identically for every
	// worker count.
	if e.rowSum == nil {
		e.rowSum = make([]float64, e.n1)
	}
	e.forRows(1, e.n1, func(w, lo, hi int) {
		if e.checkStop() != nil {
			return
		}
		for v1 := lo; v1 < hi; v1++ {
			var sum float64
			for v2 := 1; v2 < e.n2; v2++ {
				idx := v1*e.n2 + v2
				s := e.cur[idx]
				if e.frozen1[v1] || e.frozen2[v2] {
					sum += s
					continue
				}
				h := min(e.l1[v1], e.l2[v2])
				var slack float64
				switch {
				case e.round >= h:
					slack = 0 // converged (Proposition 2)
				case h == depgraph.Infinite:
					slack = ack / (1 - ac)
				default:
					slack = (ack - math.Pow(ac, float64(h))) / (1 - ac)
				}
				if slack > deltaCap {
					slack = deltaCap
				}
				b := s + slack
				if b > 1 {
					b = 1
				}
				sum += b
			}
			e.rowSum[v1] = sum
		}
	})
	if err := e.stopErr(); err != nil {
		return 0, err
	}
	var sum float64
	for v1 := 1; v1 < e.n1; v1++ {
		sum += e.rowSum[v1]
	}
	return sum, nil
}

// realMatrix extracts the similarity matrix restricted to real events
// (dropping the artificial row and column).
func (e *dirEngine) realMatrix() []float64 {
	r1, r2 := e.n1-1, e.n2-1
	out := make([]float64, r1*r2)
	for i := 0; i < r1; i++ {
		copy(out[i*r2:(i+1)*r2], e.cur[(i+1)*e.n2+1:(i+2)*e.n2])
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
