package ems_test

import (
	"math"
	"reflect"
	"testing"

	"repro/ems"
)

// TestMatchFastDefaultGoldenMapping pins the user-visible contract of the
// default fast path on the paper's running example: the selected mapping —
// the thing callers act on — must be identical to the exact computation's,
// and every similarity must stay within the certified error bound the fast
// result carries. WithExact must still produce a bound-free exact result.
func TestMatchFastDefaultGoldenMapping(t *testing.T) {
	l1, l2 := paperLogs()

	fast, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	exact, err := ems.Match(l1, l2, ems.WithExact())
	if err != nil {
		t.Fatalf("Match exact: %v", err)
	}

	if exact.Estimated {
		t.Error("WithExact result reports Estimated")
	}
	if exact.ErrorBound != 0 {
		t.Errorf("WithExact ErrorBound = %g, want 0", exact.ErrorBound)
	}

	// The correspondences must be the same pairs in the same order; their
	// scores are similarities and may differ within the certified bound.
	if len(fast.Mapping) != len(exact.Mapping) {
		t.Fatalf("fast mapping has %d correspondences, exact %d:\nfast:  %v\nexact: %v",
			len(fast.Mapping), len(exact.Mapping), fast.Mapping, exact.Mapping)
	}
	for i := range fast.Mapping {
		f, e := fast.Mapping[i], exact.Mapping[i]
		if !reflect.DeepEqual(f.Left, e.Left) || !reflect.DeepEqual(f.Right, e.Right) {
			t.Errorf("correspondence %d differs: fast %v, exact %v", i, f, e)
		}
	}

	// The similarity matrices may differ, but only within the certified
	// bound (plus the epsilon slack of the exact reference itself).
	slack := fast.ErrorBound + 1e-4/(1-0.8) + 1e-12
	for i := range fast.Names1 {
		for j := range fast.Names2 {
			f := fast.At(i, j)
			e := exact.At(i, j)
			if d := math.Abs(f - e); d > slack {
				t.Errorf("sim(%s,%s): |fast-exact| = %g exceeds %g",
					fast.Names1[i], fast.Names2[j], d, slack)
			}
		}
	}
}

// TestMatchFastPathSurface covers the new result fields end to end on a
// workload large enough for the adaptive cutover to fire: the fast result
// declares the estimation, carries a positive certified bound, prunes no
// more than the exact run (both count Proposition-2 skips only, and the
// fast run stops earlier), and finishes in fewer evaluations than exact.
func TestMatchFastPathSurface(t *testing.T) {
	l1, l2 := permutedLogsForFastPath(40, 60)

	fast, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	exact, err := ems.Match(l1, l2, ems.WithExact())
	if err != nil {
		t.Fatalf("Match exact: %v", err)
	}

	if !fast.Estimated {
		t.Fatalf("default Match did not cut over (rounds=%d)", fast.Rounds)
	}
	if fast.ErrorBound <= 0 {
		t.Errorf("ErrorBound = %g, want > 0", fast.ErrorBound)
	}
	if fast.Pruned > exact.Pruned {
		t.Errorf("fast Pruned = %d exceeds exact %d", fast.Pruned, exact.Pruned)
	}
	if fast.Evaluations >= exact.Evaluations {
		t.Errorf("fast evaluations %d not below exact %d", fast.Evaluations, exact.Evaluations)
	}
	if fast.Rounds >= exact.Rounds {
		t.Errorf("fast rounds %d not below exact %d", fast.Rounds, exact.Rounds)
	}

	// The certified bound must hold against the exact reference.
	slack := fast.ErrorBound + 1e-4/(1-0.8) + 1e-12
	for i := range fast.Names1 {
		for j := range fast.Names2 {
			if d := math.Abs(fast.At(i, j) - exact.At(i, j)); d > slack {
				t.Fatalf("sim[%d,%d]: |fast-exact| = %g exceeds certified %g", i, j, d, slack)
			}
		}
	}

	// An explicit budget must round-trip through the option and tighten
	// the cutover; an out-of-range budget must be rejected.
	tight, err := ems.Match(l1, l2, ems.WithFastPath(0.005))
	if err != nil {
		t.Fatalf("Match WithFastPath: %v", err)
	}
	if tight.Rounds < fast.Rounds {
		t.Errorf("tighter budget cut over earlier: %d rounds vs %d", tight.Rounds, fast.Rounds)
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := ems.Match(l1, l2, ems.WithFastPath(bad)); err == nil {
			t.Errorf("WithFastPath(%g) accepted", bad)
		}
	}
}

// permutedLogsForFastPath builds a deterministic pair of logs with enough
// events and loop structure that the exact iteration needs a long geometric
// tail — the situation the adaptive cutover exists for.
func permutedLogsForFastPath(activities, traces int) (*ems.Log, *ems.Log) {
	names := make([]string, activities)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	mk := func(logName string, rot int) *ems.Log {
		l := ems.NewLog(logName)
		for k := 0; k < traces; k++ {
			tr := make([]string, 0, activities+2)
			start := (k * 7) % activities
			for off := 0; off <= activities/2; off++ {
				tr = append(tr, names[(start+off*3+rot)%activities])
			}
			// Close a loop every third trace to keep the convergence
			// bound infinite (cyclic dependency graph).
			if k%3 == 0 {
				tr = append(tr, names[start%activities], tr[0])
			}
			l.Append(tr)
		}
		return l
	}
	return mk("F1", 0), mk("F2", 1)
}
