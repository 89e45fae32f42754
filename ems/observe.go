package ems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// RoundObservation is the per-round progress report delivered to a
// WithProgress observer: the lockstep round index plus one DirRoundStats per
// propagation direction.
type RoundObservation = core.RoundObservation

// DirRoundStats is one direction engine's state at a round boundary: the
// latest convergence delta, per-round and total formula evaluations, and how
// many active pairs pruning skipped.
type DirRoundStats = core.DirRoundStats

// WithProgress installs a per-round progress observer on the iteration
// engine. The observer runs on the match call's goroutine between rounds —
// the engines are quiescent while it executes — and must not retain the
// observation's Dirs slice across calls. Arming it switches the engine to
// the lockstep round schedule (the same one WithCheckpoints uses), which is
// bit-identical to the concurrent schedule at every worker count.
//
// MatchComposite ignores the observer: composite matching interleaves many
// short similarity computations whose round indices would be meaningless to
// a consumer expecting a single converging trajectory.
func WithProgress(fn func(RoundObservation)) Option {
	return func(o *options) error {
		if fn == nil {
			return fmt.Errorf("ems: progress observer must not be nil")
		}
		o.progress = fn
		return nil
	}
}

// armRound composes the WithProgress observer and the WithCheckpoints
// cadence into the engine's one round-boundary hook: every boundary is
// observed, and a checkpoint is taken at each non-final boundary whose
// round is a multiple of the cadence.
func (o *options) armRound() {
	progress, save, every := o.progress, o.checkpoint, max(o.checkpointEvery, 1)
	if progress == nil && save == nil {
		return
	}
	o.sim.OnRound = func(b *core.RoundBoundary) {
		if progress != nil {
			progress(b.RoundObservation)
		}
		if save != nil && !b.Final && b.Round%every == 0 {
			save(b.Checkpoint())
		}
	}
}

// armTrace connects the engine's span hook to a trace carried by the
// WithContext context (see obs.ContextWithTrace). A Config.Span installed
// directly takes precedence. Called once per match call, after options are
// resolved.
func (o *options) armTrace() {
	if o.sim.Span != nil || o.ctx == nil {
		return
	}
	if tr := obs.TraceFrom(o.ctx); tr != nil {
		o.sim.Span = tr.Span
	}
}

// span opens a facade-level span (graph-build, select, ...) when tracing is
// armed; the returned func ends it. A no-op closure is returned otherwise so
// call sites need no nil checks.
func (o *options) span(name string) func() {
	if o.sim.Span == nil {
		return func() {}
	}
	return o.sim.Span(name)
}
