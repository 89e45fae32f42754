package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
)

// ErrCheckpointMismatch is returned by Restore when a checkpoint was taken
// from a computation with a different configuration, different graphs, or
// different frozen rows and columns — resuming from it would not reproduce
// the original run.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this computation")

// ErrCorruptCheckpoint is returned by UnmarshalBinary when the bytes are not
// a well-formed checkpoint (bad magic, bad CRC, truncated, or inconsistent
// dimensions). Callers recovering persisted state should treat it as "no
// checkpoint" and restart from round 0.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")

// DirCheckpoint is the mutable state of one direction engine at a round
// boundary. Everything else the engine needs (label matrix, agreement cache,
// frozen rows and columns, convergence bounds) is rebuilt deterministically
// from the graphs, configuration and seed by NewComputation.
type DirCheckpoint struct {
	// Round and Evals are the iteration round and formula-(1) evaluation
	// counters at the instant of the checkpoint.
	Round int
	Evals int
	// Converged, Estimated, Warmed and Cutover restore the corresponding
	// engine latches (Cutover is the fast path's, see Config.FastPath);
	// LastDelta is the maximum pair increment of the latest round, which
	// drives the cutover test and the upper-bound computation.
	Converged bool
	Estimated bool
	Warmed    bool
	Cutover   bool
	LastDelta float64
	// N1 and N2 are the matrix dimensions including the artificial event.
	N1, N2 int
	// Cur and Prev are the S^round and S^(round-1) matrices, row-major,
	// exact float64 bits. Both are needed: the estimation pass fits its
	// recurrence constant from the last two iterates.
	Cur, Prev []float64
}

// Checkpoint is a consistent snapshot of a Computation between iteration
// rounds, sufficient to resume it bit-identically via Restore. Fingerprint
// binds the snapshot to the numeric configuration, the graphs and the label
// matrix it was taken from (but not to Workers — a checkpoint taken under
// one worker budget resumes under any other, since results are worker-count
// independent).
type Checkpoint struct {
	Fingerprint uint64
	Dirs        []DirCheckpoint
}

// Round returns the largest per-direction round in the checkpoint.
func (cp *Checkpoint) Round() int {
	r := 0
	for i := range cp.Dirs {
		if cp.Dirs[i].Round > r {
			r = cp.Dirs[i].Round
		}
	}
	return r
}

// checkpoint binary format:
//
//	magic   "EMSCKP01"                        8 bytes
//	fingerprint                               uint64 LE
//	ndirs                                     uint32 LE
//	per direction:
//	  round, evals                            int64 LE each
//	  flags (bit0 converged, 1 estimated,
//	         2 warmed, 4 cutover)             1 byte
//	  lastDelta                               float64 bits LE
//	  n1, n2                                  uint32 LE each
//	  cur[n1*n2], prev[n1*n2]                 float64 bits LE each
//	crc32c over everything above              uint32 LE
//
// Older fast-path checkpoints carried a trailer after prev for a cutover
// detector the engine no longer has: flag bit5 marked one holding the decay
// ratio history, bit3 one that also held a per-pair freeze table. Such a
// checkpoint cannot resume bit-identically and decodes as corrupt, as does
// any other unknown flag bit: its job restarts from round 0. Exact-mode
// checkpoints never set bit3 or bit5 and decode unchanged.
const (
	checkpointMagic  = "EMSCKP01"
	ckpKnownFlags    = 1 | 2 | 4 | 16
	ckpMagicLen      = 8
	ckpDirHeaderLen  = 8 + 8 + 1 + 8 + 4 + 4
	maxCheckpointDir = 2 // a computation has one or two direction engines
)

var ckpCRCTable = crc32.MakeTable(crc32.Castagnoli)

// MarshalBinary encodes the checkpoint with a trailing CRC32-Castagnoli so
// torn or bit-rotted files are detected on load. Matrices are stored as raw
// float64 bits: decoding reproduces the exact values, including negative
// zeros, so a resumed run cannot drift.
func (cp *Checkpoint) MarshalBinary() ([]byte, error) {
	if len(cp.Dirs) == 0 || len(cp.Dirs) > maxCheckpointDir {
		return nil, fmt.Errorf("core: checkpoint must have 1..%d directions, got %d", maxCheckpointDir, len(cp.Dirs))
	}
	size := ckpMagicLen + 8 + 4 + 4
	for i := range cp.Dirs {
		d := &cp.Dirs[i]
		if d.N1 <= 0 || d.N2 <= 0 || len(d.Cur) != d.N1*d.N2 || len(d.Prev) != d.N1*d.N2 {
			return nil, fmt.Errorf("core: checkpoint direction %d has inconsistent dimensions", i)
		}
		size += ckpDirHeaderLen + 16*len(d.Cur)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, cp.Fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.Dirs)))
	for i := range cp.Dirs {
		d := &cp.Dirs[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Round))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Evals))
		var flags byte
		if d.Converged {
			flags |= 1
		}
		if d.Estimated {
			flags |= 2
		}
		if d.Warmed {
			flags |= 4
		}
		if d.Cutover {
			flags |= 16
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.LastDelta))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.N1))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.N2))
		for _, v := range d.Cur {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range d.Prev {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ckpCRCTable))
	return buf, nil
}

// UnmarshalBinary decodes a checkpoint written by MarshalBinary. Any
// malformed input — wrong magic, failed CRC, truncation, or dimensions that
// do not add up — yields an error wrapping ErrCorruptCheckpoint; the method
// never panics and never allocates more than the input length implies.
func (cp *Checkpoint) UnmarshalBinary(data []byte) error {
	corrupt := func(why string) error {
		return fmt.Errorf("%w: %s", ErrCorruptCheckpoint, why)
	}
	if len(data) < ckpMagicLen+8+4+4 {
		return corrupt("too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, ckpCRCTable) != binary.LittleEndian.Uint32(tail) {
		return corrupt("crc mismatch")
	}
	if string(body[:ckpMagicLen]) != checkpointMagic {
		return corrupt("bad magic")
	}
	off := ckpMagicLen
	fingerprint := binary.LittleEndian.Uint64(body[off:])
	off += 8
	ndirs := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if ndirs < 1 || ndirs > maxCheckpointDir {
		return corrupt(fmt.Sprintf("direction count %d out of range", ndirs))
	}
	dirs := make([]DirCheckpoint, ndirs)
	for i := range dirs {
		if len(body)-off < ckpDirHeaderLen {
			return corrupt("truncated direction header")
		}
		d := &dirs[i]
		d.Round = int(int64(binary.LittleEndian.Uint64(body[off:])))
		d.Evals = int(int64(binary.LittleEndian.Uint64(body[off+8:])))
		flags := body[off+16]
		if flags&^ckpKnownFlags != 0 {
			return corrupt(fmt.Sprintf("unknown flags %#x (an older fast-path trailer)", flags&^ckpKnownFlags))
		}
		d.Converged = flags&1 != 0
		d.Estimated = flags&2 != 0
		d.Warmed = flags&4 != 0
		d.Cutover = flags&16 != 0
		d.LastDelta = math.Float64frombits(binary.LittleEndian.Uint64(body[off+17:]))
		d.N1 = int(binary.LittleEndian.Uint32(body[off+25:]))
		d.N2 = int(binary.LittleEndian.Uint32(body[off+29:]))
		off += ckpDirHeaderLen
		if d.N1 <= 0 || d.N2 <= 0 {
			return corrupt("non-positive dimensions")
		}
		// Both dimensions are below 2^32, so the product cannot overflow.
		cells := uint64(d.N1) * uint64(d.N2)
		if cells > uint64(len(body)-off)/16 {
			return corrupt("matrix larger than input")
		}
		n := int(cells)
		d.Cur = make([]float64, n)
		d.Prev = make([]float64, n)
		for j := 0; j < n; j++ {
			d.Cur[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
		for j := 0; j < n; j++ {
			d.Prev[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
	}
	if off != len(body) {
		return corrupt("trailing bytes")
	}
	cp.Fingerprint = fingerprint
	cp.Dirs = dirs
	return nil
}

// Fingerprint returns the value a checkpoint of this computation would
// carry: an FNV-1a hash over everything that determines the numeric
// trajectory of the iteration — the numeric configuration, both graphs'
// in-edge structure and frequencies, the label matrix and the frozen pairs
// of every direction engine. Worker budget and the Stop/Checkpoint hooks
// are deliberately excluded: they never change results, so a checkpoint
// resumes under any of them.
func (c *Computation) Fingerprint() uint64 {
	c.fpOnce.Do(func() {
		h := fnv.New64a()
		var scratch [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(scratch[:], v)
			h.Write(scratch[:])
		}
		putF := func(v float64) { put(math.Float64bits(v)) }
		putF(c.cfg.Alpha)
		putF(c.cfg.C)
		putF(c.cfg.Epsilon)
		put(uint64(int64(c.cfg.MaxRounds)))
		put(uint64(int64(c.cfg.EstimateI)))
		if c.cfg.Prune {
			put(1)
		} else {
			put(0)
		}
		put(uint64(int64(c.cfg.Direction)))
		// The fast path changes the numeric trajectory, so its parameters
		// join the hash — but only when armed, keeping checkpoints written
		// by earlier exact-mode binaries valid.
		if c.cfg.FastPath && c.cfg.EstimateI < 0 {
			put(0xFA57FA57)
			putF(c.cfg.fastPathBudget())
		}
		for _, e := range c.engines() {
			put(uint64(int64(e.n1)))
			put(uint64(int64(e.n2)))
			// In-edge structure and frequencies drive formula (1); Pre lists
			// are sorted, so iteration order is deterministic.
			for _, g := range []*struct {
				pre  [][]int
				freq []map[int]float64
			}{
				{e.g1.Pre, e.g1.EdgeFreq},
				{e.g2.Pre, e.g2.EdgeFreq},
			} {
				for v, pre := range g.pre {
					put(uint64(len(pre)))
					for _, p := range pre {
						put(uint64(int64(p)))
						putF(g.freq[p][v])
					}
				}
			}
			for _, v := range e.lab {
				putF(v)
			}
			// The frozen rows and columns capture Proposition 4 seeds, which
			// also change the trajectory. They are hashed as one bit per
			// pair in row-major order, so fingerprints do not depend on how
			// the engine stores them.
			b := byte(0)
			nbit := 0
			for _, f1 := range e.frozen1 {
				for _, f2 := range e.frozen2 {
					b <<= 1
					if f1 || f2 {
						b |= 1
					}
					if nbit++; nbit == 8 {
						h.Write([]byte{b})
						b, nbit = 0, 0
					}
				}
			}
			if nbit > 0 {
				h.Write([]byte{b})
			}
		}
		c.fp = h.Sum64()
	})
	return c.fp
}

// checkpointNow snapshots the mutable state of every direction engine. It
// must only be called between rounds (no engine goroutine running), which
// the lockstep Run loop guarantees.
func (c *Computation) checkpointNow() *Checkpoint {
	cp := &Checkpoint{Fingerprint: c.Fingerprint()}
	for _, e := range c.engines() {
		cp.Dirs = append(cp.Dirs, DirCheckpoint{
			Round:     e.round,
			Evals:     e.evals,
			Converged: e.converged,
			Estimated: e.estimated,
			Warmed:    e.warmed,
			Cutover:   e.cutover,
			LastDelta: e.lastDelta,
			N1:        e.n1,
			N2:        e.n2,
			Cur:       append([]float64(nil), e.cur...),
			Prev:      append([]float64(nil), e.prev...),
		})
	}
	return cp
}

// Restore rewinds a freshly constructed Computation to the state captured in
// cp; a subsequent Run produces output bit-identical to the uninterrupted
// run the checkpoint was taken from. The computation must be built over the
// same graphs, numeric configuration and seeds as the original — enforced
// via the fingerprint — and must not have performed any rounds yet. Restore
// returns ErrCheckpointMismatch when the checkpoint belongs to a different
// computation.
func (c *Computation) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("core: Restore requires a checkpoint")
	}
	for _, e := range c.engines() {
		if e.round != 0 {
			return fmt.Errorf("core: Restore must be called before iteration starts (round %d)", e.round)
		}
	}
	if cp.Fingerprint != c.Fingerprint() {
		return fmt.Errorf("%w: fingerprint %016x, computation has %016x",
			ErrCheckpointMismatch, cp.Fingerprint, c.Fingerprint())
	}
	engines := c.engines()
	if len(cp.Dirs) != len(engines) {
		return fmt.Errorf("%w: %d directions, computation has %d",
			ErrCheckpointMismatch, len(cp.Dirs), len(engines))
	}
	for i, e := range engines {
		d := &cp.Dirs[i]
		if d.N1 != e.n1 || d.N2 != e.n2 || len(d.Cur) != e.n1*e.n2 || len(d.Prev) != e.n1*e.n2 {
			return fmt.Errorf("%w: direction %d is %dx%d, computation has %dx%d",
				ErrCheckpointMismatch, i, d.N1, d.N2, e.n1, e.n2)
		}
	}
	for i, e := range engines {
		d := &cp.Dirs[i]
		copy(e.cur, d.Cur)
		copy(e.prev, d.Prev)
		e.round = d.Round
		e.evals = d.Evals
		e.converged = d.Converged
		e.estimated = d.Estimated
		e.warmed = d.Warmed
		e.cutover = e.fast && d.Cutover
		e.lastDelta = d.LastDelta
	}
	return nil
}

// runLockstep drives the computation in lockstep rounds on behalf of the
// OnRound hook, which sees every round boundary. Lockstep is required so
// both direction engines are at a round boundary when state is read; rounds
// are Jacobi updates, so the lockstep schedule produces exactly the same
// numbers as the concurrent one.
func (c *Computation) runLockstep() error {
	defer c.span("iterate:lockstep")()
	for done := false; !done; {
		var err error
		if done, err = c.Step(); err != nil {
			return err
		}
		c.roundBoundary(done)
	}
	if err := c.Finish(); err != nil {
		return err
	}
	// An estimation pass (explicit EstimateI or fast-path cutover) and the
	// fast path's certifying rounds move the matrices after the last
	// boundary; without a final boundary a progress consumer would see the
	// run stall mid-flight and then complete. Emit one synthetic boundary
	// carrying Estimated (and, on the fast path, the certified ErrorBound).
	for _, e := range c.engines() {
		if e.estimated {
			c.roundBoundary(true)
			break
		}
	}
	return nil
}
