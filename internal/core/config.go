// Package core implements the Event Matching Similarity (EMS) of "Matching
// Heterogeneous Event Data" (SIGMOD 2014): a SimRank-style similarity over
// event dependency graphs, computed iteratively from the similarity of
// predecessor events weighted by edge-frequency agreement (Definition 2 and
// formula (1) of the paper), optionally blended with a label similarity.
//
// Beyond the plain fixpoint iteration the package implements everything the
// paper builds on top of it:
//
//   - early-convergence pruning (Proposition 2) driven by the longest
//     distance l(v) from the artificial event,
//   - the closed-form geometric estimation of Section 3.5 and the combined
//     Algorithm 1 (ExactEstimationTradeoff),
//   - similarity upper bounds (Proposition 6, Corollary 7) used to abort
//     unpromising composite-event candidates,
//   - backward similarity (forward similarity on the reversed graphs) and
//     the forward/backward average the experiments use,
//   - seeded recomputation that keeps provably unchanged pairs fixed
//     (Proposition 4), used by composite matching.
package core

import (
	"fmt"

	"repro/internal/label"
)

// Direction selects which neighbor sets similarity propagation follows.
type Direction int

const (
	// Forward propagates similarity from predecessors (in-neighbors), the
	// forward similarity of Definition 2.
	Forward Direction = iota
	// Backward propagates similarity from successors (out-neighbors).
	Backward
	// Both computes forward and backward similarity and averages them;
	// this is the configuration the paper's experiments use (Section 3.6).
	Both
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Both:
		return "both"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Config parameterizes the similarity computation. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Alpha is the weight of the structural part against the label part:
	// S = Alpha*(s12+s21)/2 + (1-Alpha)*S^L. Alpha = 1 ignores labels
	// (the opaque-name setting). Must be in [0,1].
	Alpha float64
	// C is the decay constant c of the edge-agreement factor
	// C(...) = c * (1 - |f1-f2|/(f1+f2)). Must be in (0,1).
	C float64
	// Epsilon is the convergence threshold: iteration stops when no pair
	// changed by more than Epsilon in a round. Must be > 0.
	Epsilon float64
	// MaxRounds caps the number of iteration rounds when cycles make the
	// early-convergence bound infinite. Must be >= 1.
	MaxRounds int
	// Prune enables early-convergence pruning (Proposition 2). It never
	// changes results, only skips provably converged updates.
	Prune bool
	// EstimateI, when >= 0, switches to Algorithm 1: EstimateI exact
	// rounds followed by the closed-form estimation of Section 3.5.
	// A negative value means exact computation. An explicit EstimateI takes
	// precedence over FastPath (the cutover round is fixed, not adaptive).
	EstimateI int
	// FastPath enables the adaptive estimation-seeded fast path: exact
	// Jacobi rounds run while the engine watches the per-round delta-decay
	// ratio; once the geometric tail is detected — or the contraction bound
	// delta*ac/(1-ac) (Banach, with ac = Alpha*C) proves the remaining change
	// is below FastPathBudget/2 — the iteration cuts over to the per-pair
	// closed-form estimate of Section 3.5, fitted from the last two exact
	// iterates. The result carries a rigorous a-posteriori error bound
	// (Result.ErrorBound), computed from one residual evaluation of the
	// final matrix: |S - S*| <= residual/(1-ac) per pair. While that bound
	// exceeds FastPathBudget, further exact rounds run, each certifying
	// delta*ac/(1-ac), so the bound fits the budget unless MaxRounds stops
	// the run first. FastPath never fires on runs that converge to Epsilon
	// before the cutover criterion is met, and is deterministic at every
	// worker count. Ignored when EstimateI >= 0.
	FastPath bool
	// FastPathBudget is the per-pair absolute error budget the fast path
	// aims for; <= 0 picks DefaultFastPathBudget. Must be < 1.
	FastPathBudget float64
	// Deprecated: ignored; matrices are always row-major.
	Tiled bool
	// Labels is the label similarity S^L; nil means opaque labels
	// (similarity 0 everywhere). It is only consulted when Alpha < 1.
	// With Workers > 1 it is called from several goroutines and must be
	// safe for concurrent use (every similarity in internal/label is).
	Labels label.Similarity
	// Direction selects forward, backward, or averaged similarity.
	Direction Direction
	// Workers is the number of goroutines that split each iteration round
	// into row ranges. 0 picks GOMAXPROCS but stays serial on small
	// instances; 1 forces the serial path. Rounds are Jacobi updates over
	// the previous matrix, so results are bit-identical for every value.
	Workers int
	// Stop, when non-nil, is the cooperative cancellation hook: the engine
	// consults it once per iteration round and once per row-chunk inside the
	// parallel workers — at the same sites in the label-matrix and
	// agreement-cache builds, the estimation pass and the upper-bound sums.
	// The first non-nil return aborts the computation with a *StopError
	// wrapping the returned cause; a typical hook is ctx.Err. It is called
	// from multiple goroutines and must be safe for concurrent use. The hook
	// never alters the numbers of runs it does not abort: uncancelled
	// computations stay bit-identical at every worker count.
	Stop func() error
	// OnRound, when non-nil, is the round-boundary hook: Run calls it after
	// every iteration round and, when an estimation pass moved the matrices
	// after the last round, once more for that final state. The boundary
	// carries the round's observation (the live view of the paper's §5
	// convergence and evaluation savings) and takes a deep-copied Checkpoint
	// on demand; checkpoint cadence is the caller's choice. Arming it makes
	// Run drive the direction engines in lockstep, so every boundary is
	// consistent across directions, and the hook runs synchronously on the
	// Run goroutine. Like Stop and Workers it never changes the computed
	// numbers. Stepwise drivers (composite matching) bypass it.
	OnRound func(*RoundBoundary)
	// Span, when non-nil, is the tracing hook: the engine calls it at the
	// start of a named internal phase (label-matrix build, agreement-cache
	// build, each matching direction) and invokes the returned func at the
	// phase's end. It is called from multiple goroutines and must be safe
	// for concurrent use; nil costs nothing and armed it never changes the
	// computed numbers. obs.Trace.Span has exactly this shape.
	Span func(name string) func()
}

// DefaultFastPathBudget is the per-pair absolute error budget of the fast
// path when Config.FastPathBudget is unset. At the paper's alpha = 1,
// c = 0.8 it cuts over once the remaining change of every pair is provably
// below 0.025 — far below the similarity contrasts that drive
// correspondence selection, and certified per run by Result.ErrorBound.
const DefaultFastPathBudget = 0.05

// fastPathBudget resolves the configured budget against the default.
func (c Config) fastPathBudget() float64 {
	if c.FastPathBudget > 0 {
		return c.FastPathBudget
	}
	return DefaultFastPathBudget
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: alpha = 1 (structure only), c = 0.8, both directions, exact
// computation with pruning enabled.
func DefaultConfig() Config {
	return Config{
		Alpha:     1.0,
		C:         0.8,
		Epsilon:   1e-4,
		MaxRounds: 100,
		Prune:     true,
		EstimateI: -1,
		Direction: Both,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: Alpha must be in [0,1], got %g", c.Alpha)
	}
	if c.C <= 0 || c.C >= 1 {
		return fmt.Errorf("core: C must be in (0,1), got %g", c.C)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("core: Epsilon must be > 0, got %g", c.Epsilon)
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("core: MaxRounds must be >= 1, got %d", c.MaxRounds)
	}
	if c.Direction != Forward && c.Direction != Backward && c.Direction != Both {
		return fmt.Errorf("core: invalid Direction %d", int(c.Direction))
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.FastPathBudget < 0 || c.FastPathBudget >= 1 {
		return fmt.Errorf("core: FastPathBudget must be in [0,1), got %g", c.FastPathBudget)
	}
	return nil
}

func (c Config) labels() label.Similarity {
	if c.Labels == nil || c.Alpha >= 1 {
		return label.Zero
	}
	return c.Labels
}
