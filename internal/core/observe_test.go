package core

import (
	"sync"
	"testing"
)

// TestObserverBitIdentical is the observer's determinism contract: arming
// Config.OnRound (which switches Run to the lockstep schedule) must not
// change a single bit of the output at any worker count, with or without
// pruning.
func TestObserverBitIdentical(t *testing.T) {
	g1, g2 := procgenGraphs(t, 21, 12, 40)
	for _, prune := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Prune = prune
			cfg.Workers = workers
			base, err := Compute(g1, g2, cfg)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			observed := cfg
			rounds := 0
			observed.OnRound = func(*RoundBoundary) { rounds++ }
			got, err := Compute(g1, g2, observed)
			if err != nil {
				t.Fatalf("observed: %v", err)
			}
			if rounds == 0 {
				t.Fatalf("prune=%v workers=%d: observer never fired", prune, workers)
			}
			if got.Rounds != base.Rounds || got.Evaluations != base.Evaluations || got.Converged != base.Converged {
				t.Fatalf("prune=%v workers=%d: counters diverged: got (%d,%d,%v), want (%d,%d,%v)",
					prune, workers, got.Rounds, got.Evaluations, got.Converged,
					base.Rounds, base.Evaluations, base.Converged)
			}
			for i := range base.Sim {
				if base.Sim[i] != got.Sim[i] {
					t.Fatalf("prune=%v workers=%d: Sim[%d] %v != %v", prune, workers, i, got.Sim[i], base.Sim[i])
				}
			}
		}
	}
}

// TestObserverRoundStats checks the content of the observations: rounds
// increase one at a time, per-round evaluations sum to the engine total,
// pruned counts are zero without pruning and positive with it once the
// per-pair convergence bounds start biting, and the last observation agrees
// with the final result.
func TestObserverRoundStats(t *testing.T) {
	g1, g2 := procgenGraphs(t, 33, 14, 50)
	for _, prune := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Prune = prune
		var obs []RoundObservation
		cfg.OnRound = func(b *RoundBoundary) { obs = append(obs, b.RoundObservation) }
		res, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(obs) == 0 {
			t.Fatal("no observations")
		}
		last := obs[len(obs)-1]
		if last.Round != res.Rounds {
			t.Errorf("prune=%v: last observed round %d, result rounds %d", prune, last.Round, res.Rounds)
		}
		if len(last.Dirs) != 2 {
			t.Fatalf("prune=%v: %d directions, want 2 (Both)", prune, len(last.Dirs))
		}
		if last.Dirs[0].Direction != Forward || last.Dirs[1].Direction != Backward {
			t.Errorf("prune=%v: direction order %v, %v", prune, last.Dirs[0].Direction, last.Dirs[1].Direction)
		}
		totalEvals, totalPruned := 0, 0
		for d := 0; d < 2; d++ {
			sum := 0
			prevRound := 0
			for _, ob := range obs {
				ds := ob.Dirs[d]
				if ds.Round != prevRound && ds.Round != prevRound+1 {
					t.Errorf("prune=%v dir %d: round jumped %d -> %d", prune, d, prevRound, ds.Round)
				}
				if ds.Round == prevRound+1 {
					sum += ds.RoundEvals
				}
				prevRound = ds.Round
			}
			if sum != last.Dirs[d].TotalEvals {
				t.Errorf("prune=%v dir %d: per-round evals sum %d != total %d", prune, d, sum, last.Dirs[d].TotalEvals)
			}
			totalEvals += last.Dirs[d].TotalEvals
			totalPruned += last.Dirs[d].TotalPruned
			if !last.Dirs[d].Converged && res.Converged {
				t.Errorf("prune=%v dir %d: not converged in last observation but result converged", prune, d)
			}
		}
		if totalEvals != res.Evaluations {
			t.Errorf("prune=%v: observed evals %d != result %d", prune, totalEvals, res.Evaluations)
		}
		if prune && totalPruned == 0 {
			t.Errorf("pruning enabled but no pair ever pruned (bound %d rounds)", res.Rounds)
		}
		if !prune && totalPruned != 0 {
			t.Errorf("pruning disabled but %d pairs reported pruned", totalPruned)
		}
	}
}

// TestObserverWithCheckpoint observes and checkpoints from the one round
// hook: every round is observed and the checkpoint cadence still holds.
func TestObserverWithCheckpoint(t *testing.T) {
	g1, g2 := procgenGraphs(t, 7, 12, 40)
	cfg := DefaultConfig()
	var ckps, rounds int
	save := checkpointEvery(2, func(*Checkpoint) { ckps++ })
	cfg.OnRound = func(b *RoundBoundary) {
		rounds++
		save(b)
	}
	res, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Errorf("observed %d rounds, result has %d", rounds, res.Rounds)
	}
	if ckps == 0 || ckps > rounds/2+1 {
		t.Errorf("%d checkpoints for %d rounds at cadence 2", ckps, rounds)
	}
}

// TestSpanHook exercises Config.Span: the engine must open and close spans
// for the label-matrix build (one per computation, shared by both
// directions), the agreement-cache builds and the direction runs, from whatever
// goroutine — the hook is invoked concurrently, which -race verifies.
func TestSpanHook(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 10, 30)
	var mu sync.Mutex
	opened := map[string]int{}
	closed := 0
	cfg := DefaultConfig()
	cfg.Alpha = 0.7
	cfg.Labels = func(a, b string) float64 { return 0 }
	cfg.Span = func(name string) func() {
		mu.Lock()
		opened[name]++
		mu.Unlock()
		return func() {
			mu.Lock()
			closed++
			mu.Unlock()
		}
	}
	base := cfg
	base.Span = nil
	want, err := Compute(g1, g2, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Sim {
		if want.Sim[i] != got.Sim[i] {
			t.Fatalf("span hook changed Sim[%d]", i)
		}
	}
	total := 0
	for name, n := range opened {
		total += n
		switch name {
		case "agreement-cache":
			if n != 2 {
				t.Errorf("span %q opened %d times, want 2 (one per direction engine)", name, n)
			}
		case "label-matrix", "direction:forward", "direction:backward":
			if n != 1 {
				t.Errorf("span %q opened %d times, want 1", name, n)
			}
		default:
			t.Errorf("unexpected span %q", name)
		}
	}
	if closed != total {
		t.Errorf("%d spans closed, %d opened", closed, total)
	}
}
