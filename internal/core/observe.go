package core

// DirRoundStats is one direction engine's state at a round boundary, as
// delivered to Config.OnRound. Counters are engine-lifetime totals except
// RoundEvals/RoundPruned, which cover only the latest round.
type DirRoundStats struct {
	// Direction identifies the engine (Forward or Backward; a Both
	// computation reports two entries).
	Direction Direction
	// Round is the number of iteration rounds this direction has performed.
	Round int
	// Delta is the maximum pair increment of the latest round — the
	// quantity the Epsilon convergence test watches.
	Delta float64
	// RoundEvals is the number of formula-(1) evaluations in the latest
	// round; TotalEvals accumulates them across rounds.
	RoundEvals int
	TotalEvals int
	// RoundPruned is the number of active (non-frozen) pairs the latest
	// round skipped as provably converged (Proposition 2); TotalPruned
	// accumulates them. Zero when pruning is disabled.
	RoundPruned int
	TotalPruned int
	// Converged reports whether this direction has stopped iterating.
	Converged bool
	// Estimated reports that this direction applied the closed-form
	// estimation (explicit EstimateI or a fast-path cutover). The final
	// observation of such a run is a synthetic round boundary emitted after
	// the estimation pass and, on the fast path, the certifying rounds after
	// it, so progress consumers see the jump to the final state instead of a
	// stall; its Round and counters include those certifying rounds.
	Estimated bool
	// ErrorBound is the certified a-posteriori error bound of a fast-path
	// run; zero until the certification pass has run.
	ErrorBound float64
}

// RoundObservation is the progress view of one lockstep round boundary:
// one entry per direction engine, in Forward, Backward order. A
// direction that converged in an earlier round keeps reporting its final
// state with Converged set.
type RoundObservation struct {
	// Round is the lockstep round index — the maximum per-direction round.
	Round int
	// Dirs holds the per-direction stats.
	Dirs []DirRoundStats
}

// directions returns the Direction of each engine in engines() order.
func (c *Computation) directions() []Direction {
	if c.cfg.Direction == Both {
		return []Direction{Forward, Backward}
	}
	return []Direction{c.cfg.Direction}
}

// RoundBoundary is one consistent round boundary of a lockstep Run, as
// delivered to Config.OnRound. It is valid only during the call.
type RoundBoundary struct {
	RoundObservation
	// Final reports that no iteration round follows: the iteration has
	// finished, or this is the boundary after the estimation pass. A
	// checkpoint taken here could only resume into a finished run.
	Final bool
	c     *Computation
}

// Checkpoint returns a deep copy of the iteration state at this boundary,
// which the caller may retain, serialize or persist; a computation restored
// from it (see Computation.Restore) finishes with bit-identical output.
func (b *RoundBoundary) Checkpoint() *Checkpoint { return b.c.checkpointNow() }

// roundBoundary assembles and delivers one RoundBoundary. Called from the
// lockstep Run loop only, so no engine goroutine is mutating state.
func (c *Computation) roundBoundary(final bool) {
	engines := c.engines()
	dirs := c.directions()
	b := RoundBoundary{Final: final, c: c}
	b.Dirs = make([]DirRoundStats, len(engines))
	for i, e := range engines {
		b.Dirs[i] = DirRoundStats{
			Direction:   dirs[i],
			Round:       e.round,
			Delta:       e.lastDelta,
			RoundEvals:  e.roundEvals,
			TotalEvals:  e.evals,
			RoundPruned: e.roundPruned,
			TotalPruned: e.totalPruned,
			Converged:   e.converged,
			Estimated:   e.estimated,
			ErrorBound:  e.errorBound,
		}
		b.Round = max(b.Round, e.round)
	}
	c.cfg.OnRound(&b)
}
