package ems_test

import (
	"context"
	"testing"

	"repro/ems"
	"repro/internal/obs"
)

// TestWithProgress checks that the observer fires once per exact round,
// in order, plus one synthetic final observation when an estimation pass
// finishes the run; that the final observation reports the result's round
// count, which includes the certifying round after the estimate; that the
// trajectory it reports matches the result; and that arming it changes no
// numbers.
func TestWithProgress(t *testing.T) {
	l1, l2 := paperLogs()
	base, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	var got []ems.RoundObservation
	res, err := ems.Match(l1, l2, ems.WithProgress(func(ob ems.RoundObservation) {
		got = append(got, ob)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("observer never called")
	}
	exact := len(got)
	if res.Estimated {
		exact-- // the post-estimation synthetic round boundary
	}
	for i, ob := range got[:exact] {
		if ob.Round != i+1 {
			t.Fatalf("observation %d reports round %d (estimated=%v)", i, ob.Round, res.Estimated)
		}
	}
	last := got[len(got)-1]
	if last.Round != res.Rounds {
		t.Errorf("final observation reports round %d, result has %d rounds", last.Round, res.Rounds)
	}
	if res.Estimated {
		if last.Round <= got[exact-1].Round {
			t.Errorf("final observation at round %d does not follow the cutover round %d", last.Round, got[exact-1].Round)
		}
		estimated, bound := false, 0.0
		for _, d := range last.Dirs {
			estimated = estimated || d.Estimated
			bound = max(bound, d.ErrorBound)
		}
		if !estimated {
			t.Error("final observation of an estimated run reports no Estimated direction")
		}
		if bound != res.ErrorBound {
			t.Errorf("final observation carries ErrorBound %g, result has %g", bound, res.ErrorBound)
		}
	}
	evals := 0
	for _, d := range last.Dirs {
		evals += d.TotalEvals
	}
	if evals != res.Evaluations {
		t.Errorf("observed %d evaluations, result has %d", evals, res.Evaluations)
	}
	if res.Rounds != base.Rounds || res.Evaluations != base.Evaluations {
		t.Errorf("observer changed counters: (%d,%d) vs (%d,%d)",
			res.Rounds, res.Evaluations, base.Rounds, base.Evaluations)
	}
	for i := range base.Sim {
		if base.Sim[i] != res.Sim[i] {
			t.Fatalf("observer changed Sim[%d]", i)
		}
	}
}

func TestWithProgressNil(t *testing.T) {
	l1, l2 := paperLogs()
	if _, err := ems.Match(l1, l2, ems.WithProgress(nil)); err == nil {
		t.Fatal("nil observer accepted")
	}
}

// TestWithProgressCompositeIgnored: composite matching must run fine with a
// progress observer armed — it is documented as ignored, not an error.
func TestWithProgressCompositeIgnored(t *testing.T) {
	l1, l2 := paperLogs()
	fired := 0
	res, err := ems.MatchComposite(l1, l2, ems.WithProgress(func(ems.RoundObservation) { fired++ }))
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("composite matching fired the observer %d times", fired)
	}
	if len(res.Mapping) == 0 {
		t.Error("empty composite mapping")
	}
}

// TestTraceThroughContext: a trace carried by the WithContext context must
// collect engine and facade spans, and closing them all leaves none open.
func TestTraceThroughContext(t *testing.T) {
	l1, l2 := paperLogs()
	tr := obs.NewTrace("test-trace")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := ems.Match(l1, l2, ems.WithContext(ctx)); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	want := map[string]bool{"graph-build": false, "select": false}
	for _, s := range spans {
		if s.Open {
			t.Errorf("span %q left open", s.Name)
		}
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("span %q missing from trace (got %d spans)", name, len(spans))
		}
	}

	// Composite matching records discover/composite/select but no engine
	// internals.
	tr2 := obs.NewTrace("test-trace-2")
	ctx2 := obs.ContextWithTrace(context.Background(), tr2)
	if _, err := ems.MatchComposite(l1, l2, ems.WithContext(ctx2)); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range tr2.Snapshot() {
		names[s.Name]++
	}
	for _, n := range []string{"discover", "composite", "select"} {
		if names[n] != 1 {
			t.Errorf("composite trace: span %q seen %d times, want 1 (all: %v)", n, names[n], names)
		}
	}
	if names["agreement-cache"] != 0 {
		t.Errorf("composite trace leaked %d engine spans", names["agreement-cache"])
	}
}
