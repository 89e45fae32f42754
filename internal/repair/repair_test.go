package repair

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eventlog"
)

// mkLog builds a log from traces written as "a b c" strings.
func mkLog(name string, traces ...string) *eventlog.Log {
	l := eventlog.New(name)
	for _, t := range traces {
		l.Append(eventlog.Trace(strings.Fields(t)))
	}
	return l
}

func traceOf(s string) eventlog.Trace { return eventlog.Trace(strings.Fields(s)) }

func wantTrace(t *testing.T, got eventlog.Trace, want string) {
	t.Helper()
	if !equalTrace(got, traceOf(want)) {
		t.Fatalf("got %v, want %v", got, traceOf(want))
	}
}

// applyStage runs one stage over one trace of a log, building the context
// the way the pipeline would: from the log the trace lives in.
func applyStage(t *testing.T, st Stage, l *eventlog.Log, idx int) (eventlog.Trace, Counts, Reason) {
	t.Helper()
	ctx, err := NewContext(l)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return st.Repair(ctx, l.Traces[idx])
}

func TestCollapseDuplicates(t *testing.T) {
	cases := []struct {
		name    string
		window  int
		in      string
		want    string
		dropped int
	}{
		{"clean", 1, "a b c", "a b c", 0},
		{"adjacent pair", 1, "a a b c", "a b c", 1},
		{"triple stutter", 1, "a a a b", "a b", 2},
		{"loop kept at window 1", 1, "a b a b", "a b a b", 0},
		{"wider window drops near repeat", 2, "a b a c", "a b c", 1},
		{"single event", 1, "a", "a", 0},
		{"all same", 1, "x x x x", "x", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &CollapseDuplicates{Window: tc.window}
			l := mkLog("l", tc.in)
			out, c, reason := applyStage(t, st, l, 0)
			if reason != "" {
				t.Fatalf("unexpected quarantine: %s", reason)
			}
			wantTrace(t, out, tc.want)
			if c.Dropped != tc.dropped {
				t.Fatalf("dropped = %d, want %d", c.Dropped, tc.dropped)
			}
			// Idempotence: a second run over the repaired log is a no-op.
			l2 := eventlog.New("l2")
			l2.Append(out)
			out2, c2, reason2 := applyStage(t, st, l2, 0)
			if reason2 != "" || !equalTrace(out2, out) || !c2.zero() {
				t.Fatalf("not idempotent: second run gave %v (counts %+v, reason %q)", out2, c2, reason2)
			}
		})
	}
}

func TestRepairOrder(t *testing.T) {
	// Majority context: many traces record a b c; the corrupted trace under
	// test is in the same log, as in the pipeline.
	base := []string{"a b c", "a b c", "a b c", "a b c", "a b c", "a b c"}
	cases := []struct {
		name      string
		corrupted string
		want      string
		reordered int
	}{
		{"clean", "a b c", "a b c", 0},
		{"one swap", "b a c", "a b c", 1},
		{"tail swap", "a c b", "a b c", 1},
		// The leading (b,a) flips; the tail (c,b) is also dominated but
		// flipping it would fabricate an adjacent "b b" stutter, which the
		// stage refuses (collapse has already run by then).
		{"swap refused when it would fabricate a stutter", "b a c b", "a b c b", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &RepairOrder{}
			l := mkLog("l", append(append([]string{}, base...), tc.corrupted)...)
			idx := l.Len() - 1
			out, c, reason := applyStage(t, st, l, idx)
			if reason != "" {
				t.Fatalf("unexpected quarantine: %s", reason)
			}
			wantTrace(t, out, tc.want)
			if c.Reordered != tc.reordered {
				t.Fatalf("reordered = %d, want %d", c.Reordered, tc.reordered)
			}
			// Idempotence: repair the repaired trace inside the repaired log.
			l2 := mkLog("l2", base...)
			l2.Append(out)
			out2, c2, reason2 := applyStage(t, st, l2, l2.Len()-1)
			if reason2 != "" || !equalTrace(out2, out) || !c2.zero() {
				t.Fatalf("not idempotent: second run gave %v (counts %+v, reason %q)", out2, c2, reason2)
			}
		})
	}
}

func TestRepairOrderQuarantinesUnstable(t *testing.T) {
	// With MaxPasses 1 a trace needing two passes to settle is quarantined;
	// the returned trace must be the untouched original and counts empty.
	base := []string{"a b c d", "a b c d", "a b c d", "a b c d", "a b c d", "a b c d"}
	l := mkLog("l", append(append([]string{}, base...), "d c b a")...)
	st := &RepairOrder{MaxPasses: 1}
	out, c, reason := applyStage(t, st, l, l.Len()-1)
	if reason != ReasonOrderUnstable {
		t.Fatalf("reason = %q, want %q", reason, ReasonOrderUnstable)
	}
	wantTrace(t, out, "d c b a")
	if !c.zero() {
		t.Fatalf("quarantined trace must carry zero counts, got %+v", c)
	}
	// With the default pass budget an adjacent transposition settles in
	// two passes (one swapping, one confirming no swaps remain).
	l2 := mkLog("l", append(append([]string{}, base...), "a c b d")...)
	out, c, reason = applyStage(t, &RepairOrder{}, l2, l2.Len()-1)
	if reason != "" {
		t.Fatalf("default budget quarantined: %s", reason)
	}
	wantTrace(t, out, "a b c d")
	if c.Reordered != 1 {
		t.Fatalf("reordered = %d, want 1", c.Reordered)
	}
}

func TestImputeMissing(t *testing.T) {
	// Majority of traces record a c b; the corrupted ones lost c. The
	// direct a->b edge is weak (only the corrupted traces), the path
	// a->c->b strong, so c is imputed.
	logOf := func(corrupted ...string) *eventlog.Log {
		traces := []string{"a c b", "a c b", "a c b", "a c b", "a c b", "a c b", "a c b", "a c b"}
		return mkLog("l", append(traces, corrupted...)...)
	}
	t.Run("imputes dropped event", func(t *testing.T) {
		st := &ImputeMissing{}
		l := logOf("a b")
		out, c, reason := applyStage(t, st, l, l.Len()-1)
		if reason != "" {
			t.Fatalf("unexpected quarantine: %s", reason)
		}
		wantTrace(t, out, "a c b")
		if c.Imputed != 1 {
			t.Fatalf("imputed = %d, want 1", c.Imputed)
		}
		// Idempotence: after repair no a->b adjacency remains anywhere, so a
		// second run changes nothing.
		l2 := logOf()
		l2.Append(out)
		out2, c2, reason2 := applyStage(t, st, l2, l2.Len()-1)
		if reason2 != "" || !equalTrace(out2, out) || !c2.zero() {
			t.Fatalf("not idempotent: second run gave %v (counts %+v, reason %q)", out2, c2, reason2)
		}
	})
	t.Run("keeps supported direct edge", func(t *testing.T) {
		// When a->b is itself common (half the log), the path is not
		// dominant enough and nothing is imputed.
		traces := []string{"a c b", "a c b", "a c b", "a b", "a b", "a b"}
		l := mkLog("l", traces...)
		out, c, reason := applyStage(t, &ImputeMissing{}, l, l.Len()-1)
		if reason != "" {
			t.Fatalf("unexpected quarantine: %s", reason)
		}
		wantTrace(t, out, "a b")
		if !c.zero() {
			t.Fatalf("expected no repair, got %+v", c)
		}
	})
	t.Run("quarantines over budget", func(t *testing.T) {
		st := &ImputeMissing{MaxPerTrace: 1}
		// Two independent losses in one trace exceed a budget of one.
		traces := []string{
			"a c b x e y", "a c b x e y", "a c b x e y", "a c b x e y",
			"a c b x e y", "a c b x e y", "a c b x e y", "a c b x e y",
		}
		l := mkLog("l", append(traces, "a b x y")...)
		out, c, reason := applyStage(t, st, l, l.Len()-1)
		if reason != ReasonBeyondRepair {
			t.Fatalf("reason = %q, want %q", reason, ReasonBeyondRepair)
		}
		wantTrace(t, out, "a b x y")
		if !c.zero() {
			t.Fatalf("quarantined trace must carry zero counts, got %+v", c)
		}
		// A budget of two repairs both losses.
		out, c, reason = applyStage(t, &ImputeMissing{MaxPerTrace: 2}, l, l.Len()-1)
		if reason != "" {
			t.Fatalf("unexpected quarantine: %s", reason)
		}
		wantTrace(t, out, "a c b x e y")
		if c.Imputed != 2 {
			t.Fatalf("imputed = %d, want 2", c.Imputed)
		}
	})
}

func TestPipelineReportAccounting(t *testing.T) {
	// A log with every defect class: duplicates, swaps, a dropped event,
	// and one hopeless trace (quarantined by order repair via a tiny pass
	// budget is hard to force here, so force beyond-repair instead).
	clean := []string{"a c b x e y", "a c b x e y", "a c b x e y", "a c b x e y",
		"a c b x e y", "a c b x e y", "a c b x e y", "a c b x e y"}
	dirty := []string{
		"a a c b x e y", // duplicate
		"c a b x e y",   // swap
		"a b x e y",     // dropped c
		"a b x y",       // dropped c and e: beyond a budget of 1
		"a c b x e y",   // untouched
	}
	l := mkLog("dirty", append(append([]string{}, clean...), dirty...)...)
	p, err := NewPipeline(
		&CollapseDuplicates{},
		&RepairOrder{},
		&ImputeMissing{MaxPerTrace: 1},
	)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	out, rep, err := p.Run(l)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TracesIn != l.Len() {
		t.Fatalf("TracesIn = %d, want %d", rep.TracesIn, l.Len())
	}
	if rep.TracesIn != rep.TracesOut+rep.TracesQuarantined {
		t.Fatalf("accounting broken: in=%d out=%d quarantined=%d",
			rep.TracesIn, rep.TracesOut, rep.TracesQuarantined)
	}
	if out.Len() != rep.TracesOut {
		t.Fatalf("output log has %d traces, report says %d", out.Len(), rep.TracesOut)
	}
	// Stage sums must equal the totals.
	var dropped, reordered, imputed, quarantined int
	for _, sr := range rep.Stages {
		dropped += sr.EventsDropped
		reordered += sr.EventsReordered
		imputed += sr.EventsImputed
		quarantined += sr.TracesQuarantined
	}
	if dropped != rep.EventsDropped || reordered != rep.EventsReordered ||
		imputed != rep.EventsImputed || quarantined != rep.TracesQuarantined {
		t.Fatalf("stage sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			dropped, reordered, imputed, quarantined,
			rep.EventsDropped, rep.EventsReordered, rep.EventsImputed, rep.TracesQuarantined)
	}
	if rep.EventsDropped != 1 || rep.EventsReordered != 1 || rep.EventsImputed != 1 {
		t.Fatalf("expected exactly one drop/reorder/impute, got %+v", rep)
	}
	if rep.TracesQuarantined != 1 {
		t.Fatalf("TracesQuarantined = %d, want 1", rep.TracesQuarantined)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Reason != ReasonBeyondRepair ||
		rep.Quarantined[0].Index != len(clean)+3 {
		t.Fatalf("quarantine sample wrong: %+v", rep.Quarantined)
	}
	if rep.TracesTouched != 3 {
		t.Fatalf("TracesTouched = %d, want 3", rep.TracesTouched)
	}
	// The input log must be untouched.
	if !equalTrace(l.Traces[len(clean)], traceOf("a a c b x e y")) {
		t.Fatalf("input log mutated: %v", l.Traces[len(clean)])
	}
	// Every surviving dirty trace must have been restored to the clean form.
	for i, tr := range out.Traces {
		if !equalTrace(tr, traceOf("a c b x e y")) {
			t.Fatalf("output trace %d = %v, want clean form", i, tr)
		}
	}
}

func TestPipelineFixpointOnNoisyLog(t *testing.T) {
	// The default pipeline over a synthetically corrupted log must reach a
	// fixpoint: running it a second time on its own output changes nothing.
	clean := eventlog.New("clean")
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 60; i++ {
		clean.Append(eventlog.Trace(append([]string(nil), alphabet...)))
	}
	noisy, err := eventlog.AddNoise(rng, clean, eventlog.NoiseOptions{DropProb: 0.05, SwapProb: 0.05, DupProb: 0.03})
	if err != nil {
		t.Fatalf("AddNoise: %v", err)
	}
	p := Default(Options{})
	out1, rep1, err := p.Run(noisy)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !rep1.Touched() {
		t.Fatalf("noise at 5%% should touch something, report: %+v", rep1)
	}
	out2, rep2, err := p.Run(out1)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if rep2.EventsDropped != 0 || rep2.EventsReordered != 0 || rep2.TracesQuarantined != 0 {
		t.Fatalf("second run not a fixpoint: %+v", rep2)
	}
	if out2.Len() != out1.Len() {
		t.Fatalf("second run changed trace count: %d -> %d", out1.Len(), out2.Len())
	}
}

// rejectAll is a test stage that quarantines every trace.
type rejectAll struct{}

func (rejectAll) Name() string { return "reject-all" }
func (rejectAll) Repair(_ *Context, t eventlog.Trace) (eventlog.Trace, Counts, Reason) {
	return t, Counts{}, ReasonBeyondRepair
}

func TestPipelineErrors(t *testing.T) {
	if _, err := NewPipeline(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := NewPipeline(&CollapseDuplicates{}, &CollapseDuplicates{Window: 2}); err == nil {
		t.Fatal("duplicate stage names accepted")
	}
	if _, err := NewPipeline(&CollapseDuplicates{}, nil); err == nil {
		t.Fatal("nil stage accepted")
	}
	p := Default(Options{})
	if _, _, err := p.Run(eventlog.New("empty")); err == nil {
		t.Fatal("empty log accepted")
	}
	// A stage that quarantines every trace must fail the run, with the
	// partial report still describing what happened.
	all, err := NewPipeline(rejectAll{})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := all.Run(mkLog("l", "a b", "b a"))
	if err == nil {
		t.Fatal("expected all-quarantined error")
	}
	if rep == nil || rep.TracesQuarantined != 2 || rep.TracesOut != 0 {
		t.Fatalf("partial report missing or wrong: %+v", rep)
	}
}
