package ems

import (
	"fmt"

	"repro/internal/core"
)

// EngineCheckpoint is a consistent snapshot of the similarity iteration
// between rounds, sufficient to resume the same match bit-identically. It
// serializes via MarshalBinary/UnmarshalBinary (CRC-protected; corrupt bytes
// yield ErrCorruptCheckpoint) and is bound to the logs and numeric options
// it was taken from by a fingerprint — resuming under a different
// configuration fails with ErrCheckpointMismatch. Worker budget is
// deliberately not part of the fingerprint: a checkpoint taken under one
// WithWorkers value resumes under any other.
type EngineCheckpoint = core.Checkpoint

// ErrCheckpointMismatch reports a checkpoint taken from a different
// log pair or configuration; see EngineCheckpoint.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// ErrCorruptCheckpoint reports checkpoint bytes that fail validation; see
// EngineCheckpoint.
var ErrCorruptCheckpoint = core.ErrCorruptCheckpoint

// WithCheckpoints makes Match deliver a checkpoint to fn at every round
// that is a multiple of `every` (every <= 0 means every round), except
// after the final round. Rounds count from the start of the match, so a
// resumed match keeps the cadence of the run it resumes. The hook runs
// synchronously between rounds; the snapshot is a deep copy the hook may
// retain or persist. Checkpointing never changes the computed numbers.
// Composite matching drives many short computations and does not support
// checkpointing; MatchComposite rejects this option.
func WithCheckpoints(every int, fn func(*EngineCheckpoint)) Option {
	return func(o *options) error {
		if fn == nil {
			return fmt.Errorf("ems: checkpoint hook must not be nil")
		}
		o.checkpoint = fn
		o.checkpointEvery = every
		return nil
	}
}

// WithResume starts the match from a previously captured checkpoint instead
// of round 0. The match must be constructed over the same logs and numeric
// options as the one the checkpoint was taken from (enforced via the
// checkpoint fingerprint); the final result is then bit-identical to the
// uninterrupted run. MatchComposite rejects this option.
func WithResume(cp *EngineCheckpoint) Option {
	return func(o *options) error {
		if cp == nil {
			return fmt.Errorf("ems: resume checkpoint must not be nil")
		}
		o.resume = cp
		return nil
	}
}
