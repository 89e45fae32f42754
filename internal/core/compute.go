package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/depgraph"
)

// Result holds the computed pair-wise similarities between the real events
// of two dependency graphs.
type Result struct {
	// Names1 and Names2 list the real events of each graph in matrix order.
	Names1, Names2 []string
	// Sim is the row-major |Names1| x |Names2| combined similarity matrix.
	Sim []float64
	// Forward and Backward are the per-direction matrices; one of them is
	// nil unless Direction was Both.
	Forward, Backward []float64
	// Evaluations counts how many times formula (1) was evaluated across
	// both directions (the "number of iterations" metric of Figures 6/12).
	Evaluations int
	// Rounds is the maximum number of iteration rounds performed by either
	// direction, including the fast path's certifying rounds.
	Rounds int
	// Converged reports whether iteration stopped by convergence (or by a
	// deliberate estimation cutover) rather than by the MaxRounds cap.
	Converged bool
	// Estimated reports whether any direction applied the closed-form
	// estimation of Section 3.5 — an explicit EstimateI or the adaptive
	// fast-path cutover.
	Estimated bool
	// ErrorBound is the certified per-pair absolute error bound of a
	// fast-path run (Config.FastPath): the worst direction's a-posteriori
	// Banach bound. It is at most the fast-path budget unless the run hit
	// MaxRounds. Zero for exact and explicit EstimateI runs, which are not
	// certified, and for fast runs that Proposition 2 proved exact.
	ErrorBound float64
	// Pruned counts the pair evaluations that Proposition 2 proved
	// converged and skipped, summed over both directions and all rounds.
	Pruned int
}

// At returns the combined similarity of the i-th event of graph 1 and the
// j-th event of graph 2.
func (r *Result) At(i, j int) float64 { return r.Sim[i*len(r.Names2)+j] }

// Avg returns the average similarity over all real event pairs, the
// objective avg(S) that composite event matching maximizes.
func (r *Result) Avg() float64 {
	if len(r.Sim) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.Sim {
		sum += v
	}
	return sum / float64(len(r.Sim))
}

// Lookup returns the similarity of two events by name; ok is false when
// either name is unknown. It scans the name slices, so the first occurrence
// of a duplicated name wins.
func (r *Result) Lookup(a, b string) (v float64, ok bool) {
	i, j := slices.Index(r.Names1, a), slices.Index(r.Names2, b)
	if i < 0 || j < 0 {
		return 0, false
	}
	return r.At(i, j), true
}

// Compute runs the full similarity computation between two dependency
// graphs (which must carry the artificial event) and returns the result.
// It is the one-shot form of Computation. When cfg.Stop aborts the run, the
// error wraps ErrStopped and the hook's cause.
func Compute(g1, g2 *depgraph.Graph, cfg Config) (*Result, error) {
	c, err := NewComputation(g1, g2, cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := c.Run(); err != nil {
		return nil, err
	}
	return c.Result()
}

// Seed starts a computation from a previous Result, whose events are
// matched to the new graphs' vertices by name. It has two modes.
//
// With both Fixed masks nil it is a warm start: every pair whose two events
// both appear in From starts at its previous value and keeps iterating. The
// fixpoint is unique for alpha*c < 1 (the contraction argument of Theorem
// 1), so a warm start changes how many rounds reach the fixpoint, not the
// fixpoint; incremental rematching after log updates relies on it.
//
// Otherwise it freezes by Proposition 4. After a composite merge into graph
// Side (1 or 2), Fixed[0] (forward) and Fixed[1] (backward) mark, by vertex
// index of that graph, the events whose similarities the merge provably
// left unchanged. Their whole rows (Side 1) or columns (Side 2) keep the
// previous value of that direction and are never updated; every other pair
// starts cold. The other graph must be the one From was computed over.
type Seed struct {
	From  *Result
	Side  int
	Fixed [2][]bool
}

// Computation is a stepwise similarity computation. Composite-event matching
// drives it one round at a time so it can abort candidates whose similarity
// upper bound cannot beat the incumbent (Section 4.3).
type Computation struct {
	cfg      Config
	fwd, bwd *dirEngine // bwd is nil unless Direction == Both; fwd holds the
	// single engine for Forward or Backward directions.
	names1, names2 []string
	realPairs      int

	// fpOnce/fp lazily cache the checkpoint fingerprint (see Fingerprint).
	fpOnce sync.Once
	fp     uint64
}

// NewComputation prepares a similarity computation between two graphs with
// artificial events. seed may be nil.
func NewComputation(g1, g2 *depgraph.Graph, cfg Config, seed *Seed) (*Computation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Computation{
		cfg:       cfg,
		names1:    g1.Names[g1.RealStart():],
		names2:    g2.Names[g2.RealStart():],
		realPairs: g1.RealCount() * g2.RealCount(),
	}
	// One pool serves both direction engines: the per-direction goroutines
	// of Run submit row ranges to the same workers, so a computation never
	// uses more than cfg.Workers row workers at once.
	var pool *rowPool
	if w := resolveWorkers(cfg, g1.N(), g2.N()); w > 1 {
		pool = newRowPool(w)
	}
	var err error
	switch cfg.Direction {
	case Forward:
		c.fwd, err = newDirEngine(g1, g2, cfg, pool, nil)
	case Backward:
		c.fwd, err = newDirEngine(g1.Reverse(), g2.Reverse(), cfg, pool, nil)
	case Both:
		// The backward engine shares the forward engine's label matrix: the
		// reversed graphs keep the names in the same order.
		c.fwd, err = newDirEngine(g1, g2, cfg, pool, nil)
		if err == nil {
			c.bwd, err = newDirEngine(g1.Reverse(), g2.Reverse(), cfg, pool, c.fwd.lab)
		}
	default:
		err = fmt.Errorf("core: invalid direction %v", cfg.Direction)
	}
	if err != nil {
		return nil, err
	}
	if seed != nil {
		if err := c.start(seed, g1, g2); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// start applies a seed to the freshly built direction engines (see Seed).
func (c *Computation) start(s *Seed, g1, g2 *depgraph.Graph) error {
	warm := s.Fixed[0] == nil && s.Fixed[1] == nil
	if !warm && s.Side != 1 && s.Side != 2 {
		return fmt.Errorf("core: seed side must be 1 or 2, got %d", s.Side)
	}
	at1, at2 := prevIndex(g1, s.From.Names1), prevIndex(g2, s.From.Names2)
	at, n := at1, g1.N()
	if s.Side == 2 {
		at, n = at2, g2.N()
	}
	n2p := len(s.From.Names2)
	for k, e := range c.engines() {
		d, prev := 0, s.From.Forward
		if c.directions()[k] == Backward {
			d, prev = 1, s.From.Backward
		}
		fixed := s.Fixed[d]
		if prev == nil || !warm && fixed == nil {
			continue
		}
		if !warm && len(fixed) != n {
			return fmt.Errorf("core: seed marks %d vertices, graph %d has %d", len(fixed), s.Side, n)
		}
		mask := e.frozen1
		if s.Side == 2 {
			mask = e.frozen2
		}
		for v, f := range fixed {
			if f && at[v] >= 0 {
				mask[v] = true
			}
		}
		for i := 1; i < e.n1; i++ {
			for j := 1; j < e.n2; j++ {
				if !warm && !e.frozen1[i] && !e.frozen2[j] {
					continue
				}
				if at1[i] < 0 || at2[j] < 0 {
					if warm {
						continue
					}
					return fmt.Errorf("core: seed's other graph has events its previous result lacks")
				}
				e.cur[i*e.n2+j] = prev[at1[i]*n2p+at2[j]]
				e.warmed = warm // a carried-over start voids monotonicity
			}
		}
	}
	return nil
}

// prevIndex maps every vertex of g to the position of its name in names,
// -1 for the artificial event and for names missing from names.
func prevIndex(g *depgraph.Graph, names []string) []int {
	at := make([]int, g.N())
	for v := range at {
		at[v] = -1
	}
	for k, n := range names {
		if v, ok := g.Index[n]; ok && v >= g.RealStart() && at[v] < 0 {
			at[v] = k
		}
	}
	return at
}

// Step performs one iteration round in every direction and reports whether
// the computation has finished. Calling Step after completion is a no-op
// that returns true. A non-nil error wraps ErrStopped: the stop hook aborted
// the round and the computation must not be used further.
func (c *Computation) Step() (done bool, err error) {
	if c.finished() {
		return true, nil
	}
	done = true
	for _, e := range c.engines() {
		if e.iterDone() {
			continue
		}
		delta, err := e.step()
		if err != nil {
			return false, err
		}
		if !e.doneAfter(delta) && !e.iterDone() {
			done = false
		}
	}
	return done, nil
}

// Finish completes the computation: any remaining exact rounds are skipped
// and, in estimation mode or after a fast-path cutover, the closed-form
// estimate is applied; on the fast path the certification follows, which
// may run further rounds. Use it after deciding not to abort a stepwise
// computation. Idempotent.
func (c *Computation) Finish() error {
	for _, e := range c.engines() {
		if err := e.finish(); err != nil {
			return err
		}
	}
	return nil
}

// Run iterates every direction to completion (including estimation when
// configured). The two directions are independent fixpoints, so with
// Direction == Both they run concurrently. A panic on a direction goroutine
// is re-raised here as an *EnginePanic so callers can contain it; a stop
// requested through Config.Stop surfaces as an error wrapping ErrStopped.
// When Config.OnRound is set, Run instead drives the directions in lockstep
// so it can hand out consistent round boundaries — the numbers are identical
// either way (Jacobi rounds depend only on the previous matrix).
func (c *Computation) Run() error {
	if c.cfg.OnRound != nil {
		return c.runLockstep()
	}
	engines := c.engines()
	dirs := c.directions()
	if len(engines) == 1 {
		defer c.span("direction:" + dirs[0].String())()
		return engines[0].run()
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[EnginePanic]
	errs := make([]error, len(engines))
	for i, e := range engines {
		wg.Add(1)
		go func(i int, e *dirEngine) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, asEnginePanic(r))
				}
			}()
			defer c.span("direction:" + dirs[i].String())()
			errs[i] = e.run()
		}(i, e)
	}
	wg.Wait()
	if ep := panicked.Load(); ep != nil {
		panic(ep)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AvgUpperBound returns an upper bound on the average similarity over all
// real event pairs, given the rounds performed so far (Proposition 6 /
// Corollary 7). With Direction == Both it is the average of the two
// per-direction bounds, which bounds the average of the two averages.
func (c *Computation) AvgUpperBound() (float64, error) {
	if c.realPairs == 0 {
		return 0, nil
	}
	var sum float64
	engines := c.engines()
	for _, e := range engines {
		s, err := e.upperBoundSum()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum / float64(len(engines)) / float64(c.realPairs), nil
}

// Evaluations returns the number of formula-(1) evaluations so far.
func (c *Computation) Evaluations() int {
	n := 0
	for _, e := range c.engines() {
		n += e.evals
	}
	return n
}

// Result assembles the current similarity matrices. In estimation mode the
// estimate is applied first if pending. Once any direction engine has been
// stopped, Result refuses to publish the partial matrices and returns the
// latched stop error instead.
func (c *Computation) Result() (*Result, error) {
	for _, e := range c.engines() {
		if err := e.stopErr(); err != nil {
			return nil, err
		}
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}
	r := &Result{
		Names1:      c.names1,
		Names2:      c.names2,
		Evaluations: c.Evaluations(),
	}
	for _, e := range c.engines() {
		if e.round > r.Rounds {
			r.Rounds = e.round
		}
		if e.estimated {
			r.Estimated = true
		}
		if e.errorBound > r.ErrorBound {
			r.ErrorBound = e.errorBound
		}
		r.Pruned += e.totalPruned
	}
	r.Converged = true
	for _, e := range c.engines() {
		if !e.converged && !e.estimated && e.round >= c.cfg.MaxRounds {
			r.Converged = false
		}
	}
	switch c.cfg.Direction {
	case Forward:
		r.Forward = c.fwd.realMatrix()
		r.Sim = r.Forward
	case Backward:
		r.Backward = c.fwd.realMatrix()
		r.Sim = r.Backward
	case Both:
		r.Forward = c.fwd.realMatrix()
		r.Backward = c.bwd.realMatrix()
		r.Sim = make([]float64, len(r.Forward))
		for i := range r.Sim {
			r.Sim[i] = (r.Forward[i] + r.Backward[i]) / 2
		}
	}
	return r, nil
}

// span opens a tracing span via the Config.Span hook; a no-op func when the
// hook is unarmed.
func (c *Computation) span(name string) func() {
	if c.cfg.Span == nil {
		return func() {}
	}
	return c.cfg.Span(name)
}

func (c *Computation) engines() []*dirEngine {
	if c.bwd != nil {
		return []*dirEngine{c.fwd, c.bwd}
	}
	return []*dirEngine{c.fwd}
}

func (c *Computation) finished() bool {
	for _, e := range c.engines() {
		if !e.iterDone() {
			return false
		}
	}
	return true
}

// ExactEstimationTradeoff is Algorithm 1 of the paper: I exact iteration
// rounds followed by the closed-form estimation. It is a convenience wrapper
// over Compute with EstimateI set.
func ExactEstimationTradeoff(g1, g2 *depgraph.Graph, cfg Config, iterations int) (*Result, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: iterations must be >= 0, got %d", iterations)
	}
	cfg.EstimateI = iterations
	return Compute(g1, g2, cfg)
}
