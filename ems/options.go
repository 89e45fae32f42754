package ems

import (
	"context"
	"fmt"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/matching"
)

// options gathers the resolved configuration of a match call.
type options struct {
	sim                core.Config
	minFrequency       float64
	selectionThreshold float64
	strategy           matching.Strategy
	markov             bool
	// cancellation
	ctx     context.Context
	timeout time.Duration
	// round-boundary consumers, composed into sim.OnRound by armRound:
	// the WithProgress observer and the WithCheckpoints cadence and sink
	progress        func(RoundObservation)
	checkpointEvery int
	checkpoint      func(*EngineCheckpoint)
	// durability: non-nil resumes the iteration from a checkpoint
	resume *EngineCheckpoint
	// composite matching
	discover      composite.DiscoverOptions
	delta         float64
	maxMergeSteps int
	useUnchanged  bool
	useBounds     bool
	// dirty-log repair: non-nil runs the repair pipeline over both logs
	// before graph construction; rep1/rep2 carry the reports to assemble.
	repair     *RepairOptions
	rep1, rep2 *RepairReport
}

// armStop installs the cooperative-cancellation hook derived from
// WithContext and WithTimeout onto the similarity config and returns a
// release function the match call must defer; the release stops the timeout
// timer (if any) so abandoned deadlines do not linger.
func (o *options) armStop() (release func()) {
	ctx := o.ctx
	if ctx == nil {
		if o.timeout <= 0 {
			return func() {}
		}
		ctx = context.Background()
	}
	cancel := func() {}
	if o.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
	}
	o.sim.Stop = ctx.Err
	return cancel
}

// Option customizes Match and MatchComposite.
type Option func(*options) error

func buildOptions(opts []Option) (*options, error) {
	o := &options{
		sim:                core.DefaultConfig(),
		selectionThreshold: 0.1,
		discover:           composite.DefaultDiscoverOptions(),
		delta:              0.005,
		useUnchanged:       true,
		useBounds:          true,
	}
	// The adaptive fast path (estimation-seeded iteration with certified
	// error bound) is on by default; WithExact is the escape hatch back to
	// plain exact iteration.
	o.sim.FastPath = true
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	if err := o.sim.Validate(); err != nil {
		return nil, err
	}
	o.armRound()
	return o, nil
}

// WithAlpha sets the weight of structural against label similarity
// (alpha = 1 ignores labels; requires [0, 1]).
func WithAlpha(alpha float64) Option {
	return func(o *options) error {
		if alpha < 0 || alpha > 1 {
			return fmt.Errorf("ems: alpha must be in [0,1], got %g", alpha)
		}
		o.sim.Alpha = alpha
		return nil
	}
}

// WithDecay sets the similarity decay constant c of the edge-agreement
// factor (requires (0, 1); the paper uses 0.8).
func WithDecay(c float64) Option {
	return func(o *options) error {
		if c <= 0 || c >= 1 {
			return fmt.Errorf("ems: decay must be in (0,1), got %g", c)
		}
		o.sim.C = c
		return nil
	}
}

// WithLabelSimilarity enables blending a typographic similarity into the
// structural one; combine with WithAlpha < 1 to give it weight.
func WithLabelSimilarity(sim LabelSimilarity) Option {
	return func(o *options) error {
		o.sim.Labels = sim
		return nil
	}
}

// WithEstimation switches to Algorithm 1 with a hand-picked cutover: the
// given number of exact iteration rounds followed by the closed-form
// estimation of Section 3.5. Iterations must be >= 0; larger trades time for
// accuracy. This replaces the default adaptive fast path, which picks the
// cutover round itself — prefer the default unless reproducing the paper's
// fixed-I experiments.
func WithEstimation(iterations int) Option {
	return func(o *options) error {
		if iterations < 0 {
			return fmt.Errorf("ems: estimation iterations must be >= 0, got %d", iterations)
		}
		o.sim.EstimateI = iterations
		o.sim.FastPath = false
		return nil
	}
}

// WithExact forces plain exact iteration to convergence, disabling the
// default fast path and any WithEstimation cutover. Results are then
// bit-identical at every worker count and match the paper's exact EMS;
// use it when reproducibility outweighs the fast path's certified error
// budget (Result.ErrorBound).
func WithExact() Option {
	return func(o *options) error {
		o.sim.EstimateI = -1
		o.sim.FastPath = false
		return nil
	}
}

// WithFastPath tunes the adaptive estimation-seeded fast path (on by
// default): exact Jacobi rounds run until the contraction bound of a round
// puts every pair within budget/2 of the fixpoint, then one closed-form
// estimation pass and a certifying round over the estimate replace the
// remaining iterations. budget is the per-pair absolute error the run must
// certify, in [0, 1); 0 picks the default (core.DefaultFastPathBudget).
// Every run certifies its actual worst-case error a posteriori in
// Result.ErrorBound, which fits the budget unless the run hits its round
// cap. Overrides an earlier WithExact.
func WithFastPath(budget float64) Option {
	return func(o *options) error {
		if budget < 0 || budget >= 1 {
			return fmt.Errorf("ems: fast-path budget must be in [0,1), got %g", budget)
		}
		o.sim.FastPath = true
		o.sim.EstimateI = -1
		o.sim.FastPathBudget = budget
		return nil
	}
}

// WithoutPruning disables the early-convergence pruning of Proposition 2
// (results are unchanged; only more work is done). Useful for measuring the
// pruning benefit.
func WithoutPruning() Option {
	return func(o *options) error {
		o.sim.Prune = false
		return nil
	}
}

// WithDirection selects forward, backward, or averaged (Both, default)
// similarity propagation.
func WithDirection(d Direction) Option {
	return func(o *options) error {
		o.sim.Direction = d
		return nil
	}
}

// WithEpsilon sets the iteration convergence threshold.
func WithEpsilon(eps float64) Option {
	return func(o *options) error {
		if eps <= 0 {
			return fmt.Errorf("ems: epsilon must be > 0, got %g", eps)
		}
		o.sim.Epsilon = eps
		return nil
	}
}

// WithWorkers sets the number of goroutines the iteration engine splits
// each similarity round across. 0 (the default) picks GOMAXPROCS but stays
// serial on small instances; 1 forces the serial path. Results are
// bit-identical for every value — the rounds are Jacobi updates over the
// previous matrix, so rows are independent.
func WithWorkers(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("ems: workers must be >= 0, got %d", n)
		}
		o.sim.Workers = n
		return nil
	}
}

// WithContext makes the match call honor the context: cancellation is
// checked once per iteration round and once per row-chunk inside the
// parallel workers, so a running computation aborts within one round. The
// call then returns an error satisfying errors.Is(err, ErrStopped) that also
// wraps the context's cause (e.g. context.Canceled). The context never
// changes the numbers of a run it does not abort.
func WithContext(ctx context.Context) Option {
	return func(o *options) error {
		if ctx == nil {
			return fmt.Errorf("ems: context must not be nil")
		}
		o.ctx = ctx
		return nil
	}
}

// WithTimeout aborts the match call once the given wall-clock budget is
// spent, counted from the start of the call. It composes with WithContext:
// whichever expires first stops the computation. The returned error wraps
// both ErrStopped and context.DeadlineExceeded.
func WithTimeout(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("ems: timeout must be > 0, got %v", d)
		}
		o.timeout = d
		return nil
	}
}

// WithMaxRounds caps iteration rounds for cyclic graphs.
func WithMaxRounds(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("ems: max rounds must be >= 1, got %d", n)
		}
		o.sim.MaxRounds = n
		return nil
	}
}

// WithMinFrequency filters dependency-graph edges below the threshold
// before matching (the minimum frequency control of Section 2); it trades
// accuracy for speed.
func WithMinFrequency(f float64) Option {
	return func(o *options) error {
		if f < 0 || f >= 1 {
			return fmt.Errorf("ems: min frequency must be in [0,1), got %g", f)
		}
		o.minFrequency = f
		return nil
	}
}

// WithSelectionThreshold drops selected correspondences whose similarity is
// below the threshold.
func WithSelectionThreshold(t float64) Option {
	return func(o *options) error {
		if t < 0 || t > 1 {
			return fmt.Errorf("ems: selection threshold must be in [0,1], got %g", t)
		}
		o.selectionThreshold = t
		return nil
	}
}

// WithMarkovWeighting builds dependency graphs with Markov transition
// probabilities (Ferreira et al.) instead of the paper's trace-normalized
// frequencies — an ablation of the paper's Definition 1 choice. The paper
// argues (and the ablation confirms) that conditional probabilities hide
// edge significance, so this is off by default.
func WithMarkovWeighting() Option {
	return func(o *options) error {
		o.markov = true
		return nil
	}
}

// WithSelectionStrategy chooses how correspondences are selected from the
// similarity matrix (default: the paper's maximum-total-similarity
// assignment).
func WithSelectionStrategy(s SelectionStrategy) Option {
	return func(o *options) error {
		switch s {
		case matching.MaxTotal, matching.Greedy, matching.Stable:
			o.strategy = s
			return nil
		default:
			return fmt.Errorf("ems: unknown selection strategy %v", s)
		}
	}
}

// WithDelta sets the minimum average-similarity improvement a composite
// merge must deliver (δ of Algorithm 2).
func WithDelta(delta float64) Option {
	return func(o *options) error {
		o.delta = delta
		return nil
	}
}

// WithCandidateDiscovery controls SEQ-pattern candidate discovery for
// composite matching: the minimum bidirectional link confidence, the
// maximum composite length, and an optional cap on the number of candidates
// (0 means unlimited).
func WithCandidateDiscovery(confidence float64, maxLen, maxCandidates int) Option {
	return func(o *options) error {
		if confidence <= 0 || confidence > 1 {
			return fmt.Errorf("ems: candidate confidence must be in (0,1], got %g", confidence)
		}
		if maxLen < 2 {
			return fmt.Errorf("ems: candidate max length must be >= 2, got %d", maxLen)
		}
		o.discover = composite.DiscoverOptions{Confidence: confidence, MaxLen: maxLen, MaxCandidates: maxCandidates}
		return nil
	}
}

// WithMaxMergeSteps caps accepted composite merges (0 means unlimited).
func WithMaxMergeSteps(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("ems: max merge steps must be >= 0, got %d", n)
		}
		o.maxMergeSteps = n
		return nil
	}
}

// WithoutCompositePruning disables the Uc (unchanged similarities) and Bd
// (upper bound) prunings of composite matching; results are unchanged, only
// slower. Useful for measuring the pruning benefit.
func WithoutCompositePruning() Option {
	return func(o *options) error {
		o.useUnchanged = false
		o.useBounds = false
		return nil
	}
}

// WithCompositePruning selects the two composite prunings individually:
// unchanged-similarity seeding (Proposition 4) and upper-bound aborts
// (Section 4.3).
func WithCompositePruning(unchanged, bounds bool) Option {
	return func(o *options) error {
		o.useUnchanged = unchanged
		o.useBounds = bounds
		return nil
	}
}
