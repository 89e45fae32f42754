package experiments

import (
	"testing"
	"time"
)

// compositeQuick shrinks the composite experiments further: the generic
// greedy around GED/OPQ recomputes baselines per candidate and is slow by
// design.
func compositeQuick() Scale { return Scale{Pairs: 2, Events: 10, Traces: 80, Seed: 3} }

// TestFig10Shape: EMS must match or beat the baselines on composite
// matching, and the estimation variant must be cheaper than exact EMS...
// the headline of Figures 10.
func TestFig10Shape(t *testing.T) {
	s := compositeQuick()
	tables, err := Fig10(s)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	acc := tables[0]
	ems := cell(t, row(t, acc, "EMS")[1])
	for _, name := range []string{"GED", "BHV"} {
		r := row(t, acc, name)
		if r[1] == "DNF" {
			continue
		}
		if cell(t, r[1]) > ems+0.15 {
			t.Errorf("%s notably beats EMS on composite matching: %s vs %.3f", name, r[1], ems)
		}
	}
	// The estimation variant must not be slower than exact EMS by more
	// than noise. One run of each takes a few milliseconds, so the test
	// times them itself: interleaved runs, the fastest of each, which a
	// load spike during one run does not move.
	pairs, err := s.compositeTestbed()
	if err != nil {
		t.Fatal(err)
	}
	methods := compositeMethods(false, 8)
	exact, es := methods[0], methods[1]
	if exact.Name != "EMS" || es.Name != "EMS+es" {
		t.Fatalf("compositeMethods order changed: %s, %s", exact.Name, es.Name)
	}
	fastest := func(m Method, best *time.Duration) {
		start := time.Now()
		if _, err := RunMethod(m, pairs); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if d := time.Since(start); *best == 0 || d < *best {
			*best = d
		}
	}
	var emsT, esT time.Duration
	for i := 0; i < 7; i++ {
		fastest(exact, &emsT)
		fastest(es, &esT)
	}
	if esT > emsT*2 {
		t.Errorf("EMS+es time %v far exceeds EMS %v", esT, emsT)
	}
}

// TestFig11Runs: the with-labels variant completes and keeps EMS at least
// as accurate as without labels is not guaranteed pairwise, so just check
// structure of the output.
func TestFig11Runs(t *testing.T) {
	tables, err := Fig11(compositeQuick())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	for _, name := range []string{"EMS", "EMS+es", "GED", "OPQ", "BHV"} {
		row(t, tables[0], name)
	}
}

// TestFig12PruningPower: both prunings individually and combined must not
// exceed the unpruned evaluation count, and the combination must be the
// cheapest or tied.
func TestFig12PruningPower(t *testing.T) {
	tables, err := Fig12(compositeQuick())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	evals := tables[0]
	none := cell(t, row(t, evals, "none")[1])
	uc := cell(t, row(t, evals, "Uc")[1])
	bd := cell(t, row(t, evals, "Bd")[1])
	both := cell(t, row(t, evals, "Uc+Bd")[1])
	if uc > none || bd > none {
		t.Errorf("individual pruning increased evaluations: none=%v uc=%v bd=%v", none, uc, bd)
	}
	if both > uc+1e-9 || both > bd+1e-9 {
		t.Errorf("combined pruning worse than individual: both=%v uc=%v bd=%v", both, uc, bd)
	}
}

// TestFig13DeltaSweep: smaller delta must never be cheaper than the largest
// delta (more candidate merges are attempted and accepted).
func TestFig13DeltaSweep(t *testing.T) {
	tables, err := Fig13(compositeQuick())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	tb := tables[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("too few delta rows: %d", len(tb.Rows))
	}
	// f-measure at the best delta must be at least that of the extremes.
	best := 0.0
	for _, r := range tb.Rows {
		if v := cell(t, r[1]); v > best {
			best = v
		}
	}
	firstF := cell(t, tb.Rows[0][1])
	if best < firstF {
		t.Errorf("sweep inconsistent: best %.3f below first %.3f", best, firstF)
	}
}

// TestFig14CandidateSweep: more candidates must not reduce the best
// achievable f-measure dramatically, and time must grow from the smallest
// to the largest candidate set.
func TestFig14CandidateSweep(t *testing.T) {
	tables, err := Fig14(compositeQuick())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	tb := tables[0]
	fFirst := cell(t, tb.Rows[0][1])
	fLast := cell(t, tb.Rows[len(tb.Rows)-1][1])
	if fLast < fFirst-0.15 {
		t.Errorf("more candidates reduced f-measure: %.3f -> %.3f", fFirst, fLast)
	}
}

// TestAllQuick drives the full harness end to end at a tiny scale.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep in -short mode")
	}
	s := compositeQuick()
	emitted := 0
	tables, err := All(s, false, func(*Table) { emitted++ })
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(tables) < 15 {
		t.Errorf("only %d tables produced", len(tables))
	}
	if emitted != len(tables) {
		t.Errorf("emit called %d times for %d tables", emitted, len(tables))
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Errorf("empty table: %+v", tb)
		}
	}
}
