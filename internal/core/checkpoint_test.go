package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointedRunBitIdenticalAndResumable(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"both-prune", func(c *Config) {}},
		{"forward", func(c *Config) { c.Direction = Forward }},
		{"both-noprune", func(c *Config) { c.Prune = false }},
		{"estimate3", func(c *Config) { c.EstimateI = 3 }},
		{"workers4", func(c *Config) { c.Workers = 4 }},
		{"labels", func(c *Config) { c.Alpha = 0.7; c.Labels = testLabelSim }},
		// Tiled is deprecated and ignored; these cases pin that callers
		// still setting it get the same, resumable results.
		{"tiled", func(c *Config) { c.Tiled = true }},
		{"fastpath", func(c *Config) { c.FastPath = true }},
		{"fastpath-tiled", func(c *Config) { c.FastPath = true; c.Tiled = true }},
	}
	g1, g2 := procgenGraphs(t, 7, 12, 40)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			baseline, err := Compute(g1, g2, cfg)
			if err != nil {
				t.Fatalf("baseline Compute: %v", err)
			}
			if cfg.FastPath && !baseline.Estimated {
				// The fast-path cases exist to cover resume-mid-fastpath:
				// a workload that epsilon-converges before the cutover
				// would silently skip the cutover-state round-trip.
				t.Fatalf("fast path never cut over on this workload (rounds=%d)", baseline.Rounds)
			}

			// The checkpointed (lockstep) run must produce the same bits as
			// the plain (concurrent) run.
			var cps []*Checkpoint
			ccfg := cfg
			ccfg.OnRound = checkpointEvery(2, func(cp *Checkpoint) { cps = append(cps, cp) })
			checkpointed, err := Compute(g1, g2, ccfg)
			if err != nil {
				t.Fatalf("checkpointed Compute: %v", err)
			}
			requireBitIdentical(t, baseline, checkpointed, tc.name+"/checkpointed-run")
			if len(cps) == 0 {
				t.Fatalf("no checkpoints emitted")
			}

			// Resuming from every captured checkpoint — after a
			// serialization round-trip, under a different worker budget and
			// with the deprecated Tiled flag flipped — must reproduce the
			// baseline exactly. For the fast-path cases this includes
			// checkpoints taken before the cutover, so the delta the cutover
			// test reads round-trips too.
			for k, cp := range cps {
				data, err := cp.MarshalBinary()
				if err != nil {
					t.Fatalf("checkpoint %d: MarshalBinary: %v", k, err)
				}
				var decoded Checkpoint
				if err := decoded.UnmarshalBinary(data); err != nil {
					t.Fatalf("checkpoint %d: UnmarshalBinary: %v", k, err)
				}
				rcfg := cfg
				rcfg.Tiled = !rcfg.Tiled // the flag must not matter on resume
				if rcfg.Workers == 4 {
					rcfg.Workers = 1 // resume under a different budget
				} else {
					rcfg.Workers = 4
				}
				c, err := NewComputation(g1, g2, rcfg, nil)
				if err != nil {
					t.Fatalf("checkpoint %d: NewComputation: %v", k, err)
				}
				if err := c.Restore(&decoded); err != nil {
					t.Fatalf("checkpoint %d: Restore: %v", k, err)
				}
				if err := c.Run(); err != nil {
					t.Fatalf("checkpoint %d: resumed Run: %v", k, err)
				}
				resumed, err := c.Result()
				if err != nil {
					t.Fatalf("checkpoint %d: resumed Result: %v", k, err)
				}
				requireBitIdentical(t, baseline, resumed, tc.name+"/resume")
			}
		})
	}
}

// testLabelSim is a deterministic non-trivial label similarity.
func testLabelSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) == len(b) {
		return 0.5
	}
	return 0.25
}

// checkpointEvery returns an OnRound hook handing fn a checkpoint at every
// non-final boundary whose round is a multiple of every — the cadence
// ems.WithCheckpoints composes.
func checkpointEvery(every int, fn func(*Checkpoint)) func(*RoundBoundary) {
	return func(b *RoundBoundary) {
		if !b.Final && b.Round%every == 0 {
			fn(b.Checkpoint())
		}
	}
}

// TestCheckpointCadence pins the round-boundary contract checkpoint cadence
// is built on: boundaries arrive once per round in order, a checkpoint taken
// at a boundary carries that boundary's round, and only the last boundary
// is Final.
func TestCheckpointCadence(t *testing.T) {
	g1, g2 := procgenGraphs(t, 11, 10, 30)
	cfg := DefaultConfig()
	cfg.Epsilon = 1e-12 // force many rounds
	var rounds []int
	finals := 0
	cfg.OnRound = func(b *RoundBoundary) {
		if b.Final {
			finals++
		}
		if b.Round != len(rounds)+1 {
			t.Fatalf("boundary %d reports round %d", len(rounds)+1, b.Round)
		}
		if got := b.Checkpoint().Round(); got != b.Round {
			t.Fatalf("checkpoint at boundary %d carries round %d", b.Round, got)
		}
		rounds = append(rounds, b.Round)
	}
	res, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if len(rounds) != res.Rounds || finals != 1 {
		t.Fatalf("%d boundaries (%d final) for %d rounds, want one per round and one final", len(rounds), finals, res.Rounds)
	}
	var cadence []int
	cfg.OnRound = checkpointEvery(3, func(cp *Checkpoint) { cadence = append(cadence, cp.Round()) })
	if _, err := Compute(g1, g2, cfg); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if len(cadence) == 0 {
		t.Fatalf("no checkpoints for a long run")
	}
	for i, r := range cadence {
		if want := 3 * (i + 1); r != want {
			t.Fatalf("checkpoint %d taken at round %d, want %d (all: %v)", i, r, want, cadence)
		}
	}
}

func TestCheckpointUnmarshalRejectsCorruption(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 8, 20)
	cfg := DefaultConfig()
	var cp *Checkpoint
	cfg.OnRound = checkpointEvery(1, func(c *Checkpoint) {
		if cp == nil {
			cp = c
		}
	})
	if _, err := Compute(g1, g2, cfg); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if cp == nil {
		t.Fatalf("no checkpoint captured")
	}
	data, err := cp.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}

	var clean Checkpoint
	if err := clean.UnmarshalBinary(data); err != nil {
		t.Fatalf("clean UnmarshalBinary: %v", err)
	}

	// Any single flipped byte must be caught by the CRC.
	for off := 0; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		var out Checkpoint
		if err := out.UnmarshalBinary(mut); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("flip at %d: got %v, want ErrCorruptCheckpoint", off, err)
		}
	}
	// Truncation at any length must be caught too.
	for cut := 0; cut < len(data); cut += 5 {
		var out Checkpoint
		if err := out.UnmarshalBinary(data[:cut]); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncate to %d: got %v, want ErrCorruptCheckpoint", cut, err)
		}
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 8, 20)
	cfg := DefaultConfig()
	var cp *Checkpoint
	ccfg := cfg
	ccfg.OnRound = checkpointEvery(1, func(c *Checkpoint) {
		if cp == nil {
			cp = c
		}
	})
	if _, err := Compute(g1, g2, ccfg); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if cp == nil {
		t.Fatalf("no checkpoint captured")
	}

	// Different numeric configuration.
	other := cfg
	other.C = 0.6
	c, err := NewComputation(g1, g2, other, nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if err := c.Restore(cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different C: got %v, want ErrCheckpointMismatch", err)
	}

	// Different graphs.
	h1, h2 := procgenGraphs(t, 99, 8, 20)
	c, err = NewComputation(h1, h2, cfg, nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if err := c.Restore(cp); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("different graphs: got %v, want ErrCheckpointMismatch", err)
	}

	// Restore after iteration has started.
	c, err = NewComputation(g1, g2, cfg, nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := c.Restore(cp); err == nil {
		t.Fatalf("Restore after Step succeeded, want error")
	}

	// Nil checkpoint.
	c, err = NewComputation(g1, g2, cfg, nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if err := c.Restore(nil); err == nil {
		t.Fatalf("Restore(nil) succeeded, want error")
	}
}

func TestCheckpointMarshalRejectsInconsistent(t *testing.T) {
	bad := &Checkpoint{}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatalf("marshal of empty checkpoint succeeded")
	}
	bad = &Checkpoint{Dirs: []DirCheckpoint{{N1: 2, N2: 2, Cur: make([]float64, 3), Prev: make([]float64, 4)}}}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatalf("marshal of inconsistent dims succeeded")
	}
}

// TestCheckpointOlderFormat pins how checkpoints written by older engines
// decode. All files in testdata were taken at round 2 of the procgen pair
// below under DefaultConfig, the fast-path ones with FastPath on. The
// exact-mode one has the same encoding today and must resume
// bit-identically. The fast-path ones carry a trailer for a cutover detector
// the engine no longer has: the decay ratio history (flag bit 5), and before
// that also a per-pair freeze table (flag bit 3). Both must decode as
// corrupt, which makes emsd discard them and restart the job from round 0.
func TestCheckpointOlderFormat(t *testing.T) {
	g1, g2 := procgenGraphs(t, 7, 12, 40)

	data, err := os.ReadFile("testdata/checkpoint_exact_round2.bin")
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(data); err != nil {
		t.Fatalf("exact-mode checkpoint: UnmarshalBinary: %v", err)
	}
	if cp.Round() != 2 {
		t.Fatalf("exact-mode checkpoint is at round %d, want 2", cp.Round())
	}
	cfg := DefaultConfig()
	baseline, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		c, err := NewComputation(g1, g2, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Restore(&cp); err != nil {
			t.Fatalf("exact-mode checkpoint: Restore: %v", err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		resumed, err := c.Result()
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, baseline, resumed, fmt.Sprintf("resume workers=%d", workers))
	}

	for _, name := range []string{"checkpoint_freeze_table_round2.bin", "checkpoint_ratio_trailer_round2.bin"} {
		data, err = os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var old Checkpoint
		if err := old.UnmarshalBinary(data); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: got %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}

// TestSeedFingerprintStable pins the checkpoint fingerprints of seeded
// computations: freezing the first three rows (side 1) or columns (side 2)
// of procgenGraphs(3, 15, 50) in both directions must hash to the values
// the engine produced when it stored frozen pairs one by one, so the
// fingerprint still covers one bit per pair and checkpoints of seeded runs
// written before stay valid. The frozen values do not enter the hash.
func TestSeedFingerprintStable(t *testing.T) {
	g1, g2 := procgenGraphs(t, 3, 15, 50)
	base, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		side int
		want uint64
	}{{0, 0x455a7e5a2752cb6c}, {1, 0x51e57a9c57dbdd1c}, {2, 0xf7cc7c15b7f82b0c}} {
		var seed *Seed
		if tc.side > 0 {
			g, names := g1, base.Names1
			if tc.side == 2 {
				g, names = g2, base.Names2
			}
			mask := make([]bool, g.N())
			for _, a := range names[:3] {
				mask[g.Index[a]] = true
			}
			seed = &Seed{From: base, Side: tc.side, Fixed: [2][]bool{mask, mask}}
		}
		comp, err := NewComputation(g1, g2, DefaultConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := comp.Fingerprint(); got != tc.want {
			t.Errorf("side %d: fingerprint %016x, want %016x", tc.side, got, tc.want)
		}
	}
}
