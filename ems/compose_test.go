package ems_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/ems"
)

// permutationLogs builds a pair of n-trace logs over n events, each trace a
// random permutation: a dense cyclic dependency graph that takes many rounds
// and makes the default fast path cut over to the estimate.
func permutationLogs(seed int64, n int) (*ems.Log, *ems.Log) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(name, prefix string) *ems.Log {
		l := ems.NewLog(name)
		for c := 0; c < n; c++ {
			var tr ems.Trace
			for _, k := range rng.Perm(n) {
				tr = append(tr, fmt.Sprintf("%s%02d", prefix, k))
			}
			l.Append(tr)
		}
		return l
	}
	return mk("log1", "a"), mk("log2", "b")
}

// TestProgressAndCheckpointsCompose: WithProgress and WithCheckpoints share
// the engine's one round hook. Armed together they must each see exactly
// what they see alone — the same observation sequence, including the
// synthetic estimated final observation, and checkpoints at the same rounds,
// none after the final round — and the result must not move a bit.
func TestProgressAndCheckpointsCompose(t *testing.T) {
	l1, l2 := permutationLogs(5, 14)
	const every = 3
	var obsAlone, obsBoth []ems.RoundObservation
	var ckpAlone, ckpBoth []int
	observe := func(into *[]ems.RoundObservation) ems.Option {
		return ems.WithProgress(func(ob ems.RoundObservation) {
			ob.Dirs = append([]ems.DirRoundStats(nil), ob.Dirs...)
			*into = append(*into, ob)
		})
	}
	checkpoint := func(into *[]int) ems.Option {
		return ems.WithCheckpoints(every, func(cp *ems.EngineCheckpoint) { *into = append(*into, cp.Round()) })
	}

	plain, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Estimated || plain.Rounds < 2*every {
		t.Fatalf("workload must cut over after a few rounds: estimated=%v rounds=%d", plain.Estimated, plain.Rounds)
	}
	runs := map[string][]ems.Option{
		"progress":    {observe(&obsAlone)},
		"checkpoints": {checkpoint(&ckpAlone)},
		"both":        {observe(&obsBoth), checkpoint(&ckpBoth)},
	}
	for name, opts := range runs {
		res, err := ems.Match(l1, l2, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds != plain.Rounds || res.Evaluations != plain.Evaluations || res.ErrorBound != plain.ErrorBound {
			t.Errorf("%s: counters moved: rounds %d evals %d bound %g, want %d %d %g", name,
				res.Rounds, res.Evaluations, res.ErrorBound, plain.Rounds, plain.Evaluations, plain.ErrorBound)
		}
		for i := range plain.Sim {
			if math.Float64bits(res.Sim[i]) != math.Float64bits(plain.Sim[i]) {
				t.Fatalf("%s: Sim[%d] = %v, want %v", name, i, res.Sim[i], plain.Sim[i])
			}
		}
	}

	// One observation per exact round up to the cutover, then the estimated
	// final one, which reports the round count including the certifying
	// round after the estimate.
	if len(obsAlone) < 2 {
		t.Fatalf("%d observations for %d rounds, want one per exact round plus the estimated final one", len(obsAlone), plain.Rounds)
	}
	for i, ob := range obsAlone[:len(obsAlone)-1] {
		if ob.Round != i+1 || ob.Dirs[0].Estimated {
			t.Fatalf("observation %d = round %d estimated %v, want round %d not estimated", i, ob.Round, ob.Dirs[0].Estimated, i+1)
		}
	}
	final := obsAlone[len(obsAlone)-1]
	if final.Round != plain.Rounds || final.Round <= len(obsAlone)-1 || !final.Dirs[0].Estimated {
		t.Errorf("final observation = round %d estimated %v, want round %d estimated", final.Round, final.Dirs[0].Estimated, plain.Rounds)
	}
	bound := 0.0
	for _, d := range final.Dirs {
		bound = max(bound, d.ErrorBound)
	}
	if bound != plain.ErrorBound {
		t.Errorf("final observation carries ErrorBound %g, result has %g", bound, plain.ErrorBound)
	}
	if !reflect.DeepEqual(obsBoth, obsAlone) {
		t.Errorf("observations with checkpoints armed differ from progress alone:\n got %+v\nwant %+v", obsBoth, obsAlone)
	}

	// The last exact round's boundary is already final: the estimate and
	// the certifying round follow it without a boundary of their own.
	lastExact := len(obsAlone) - 1
	var want []int
	for r := every; r < lastExact; r += every {
		want = append(want, r)
	}
	if !reflect.DeepEqual(ckpAlone, want) {
		t.Errorf("checkpoint rounds %v, want %v (every %d, none at the final exact round %d)", ckpAlone, want, every, lastExact)
	}
	if !reflect.DeepEqual(ckpBoth, ckpAlone) {
		t.Errorf("checkpoint rounds with progress armed %v, alone %v", ckpBoth, ckpAlone)
	}
}
