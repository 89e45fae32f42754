package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/matching"
)

// cell parses a numeric cell, failing the test on DNF or malformed values.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// row finds a table row by its first cell.
func row(t *testing.T, tb *Table, name string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("row %q not found in %q", name, tb.Title)
	return nil
}

func TestTableString(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "y")
	s := tb.String()
	for _, want := range []string{"T\n", "a", "bb", "x", "y", "--"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table %q missing %q", s, want)
		}
	}
}

// TestFig3Shape checks the paper's headline claims on Figure 3: EMS has the
// best f-measure on every testbed, and BHV degrades sharply from DS-F to
// DS-B (it cannot handle dislocated trace beginnings).
func TestFig3Shape(t *testing.T) {
	tables, err := Fig3(QuickScale())
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	acc := tables[0]
	ems := row(t, acc, "EMS")
	for _, other := range []string{"GED", "OPQ", "BHV"} {
		or := row(t, acc, other)
		for col := 1; col <= 3; col++ {
			if cell(t, or[col]) > cell(t, ems[col])+1e-9 {
				t.Errorf("%s beats EMS on %s: %s vs %s", other, acc.Columns[col], or[col], ems[col])
			}
		}
	}
	// EMS+es approximates EMS; it must stay within noise of the exact run.
	es := row(t, acc, "EMS+es")
	for col := 1; col <= 3; col++ {
		if cell(t, es[col]) > cell(t, ems[col])+0.1 {
			t.Errorf("EMS+es exceeds EMS beyond noise on %s: %s vs %s", acc.Columns[col], es[col], ems[col])
		}
	}
	bhv := row(t, acc, "BHV")
	if cell(t, bhv[2]) >= cell(t, bhv[1]) && cell(t, bhv[1]) > 0 {
		t.Errorf("BHV did not degrade on DS-B: DS-F=%s DS-B=%s", bhv[1], bhv[2])
	}
}

// TestFig4LabelsHelp: with typographic similarity enabled, EMS accuracy
// must not fall below the structure-only run (the paper reports improvement
// for all approaches except OPQ).
func TestFig4LabelsHelp(t *testing.T) {
	t3, err := Fig3(QuickScale())
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	t4, err := Fig4(QuickScale())
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	for col := 1; col <= 3; col++ {
		base := cell(t, row(t, t3[0], "EMS")[col])
		with := cell(t, row(t, t4[0], "EMS")[col])
		if with < base-0.1 {
			t.Errorf("labels hurt EMS on %s: %.3f -> %.3f", t3[0].Columns[col], base, with)
		}
	}
}

// TestFig5EstimationTradeoff: f-measure must (weakly) improve from I=0 to
// MAX, and I=0 must be the cheapest configuration.
func TestFig5EstimationTradeoff(t *testing.T) {
	tables, err := Fig5(QuickScale())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	tb := tables[0]
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "MAX" {
		t.Fatalf("last row is %q, want MAX", last[0])
	}
	if cell(t, last[1]) < cell(t, first[1])-0.05 {
		t.Errorf("MAX f-measure %s below I=0 %s", last[1], first[1])
	}
	// Time: I=0 must not be notably more expensive than MAX. At quick
	// scale both are sub-millisecond and dominated by constant setup costs,
	// so only flag a 2x blowup; the full-scale run in EXPERIMENTS.md shows
	// the order-of-magnitude gap. The table's times come from one run each,
	// which a load spike can move, so the test times the two itself:
	// interleaved runs, the fastest of each.
	pairs, err := QuickScale().testbed(dataset.DSFB, 0)
	if err != nil {
		t.Fatal(err)
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
	var i0T, maxT time.Duration
	for i := 0; i < 7; i++ {
		fastest(EMSEstimate(0, false), &i0T)
		fastest(EMS(false), &maxT)
	}
	if i0T > 2*maxT {
		t.Errorf("I=0 time %v far exceeds MAX time %v", i0T, maxT)
	}
}

// TestFig6PruningReducesEvaluations: pruned runs evaluate formula (1)
// strictly fewer times on every size.
func TestFig6PruningReducesEvaluations(t *testing.T) {
	tables, err := Fig6(QuickScale())
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	evals := tables[0]
	for _, r := range evals.Rows {
		pruned, unpruned := cell(t, r[1]), cell(t, r[2])
		if pruned >= unpruned {
			t.Errorf("events=%s: pruned %v >= unpruned %v", r[0], pruned, unpruned)
		}
	}
}

// TestFig7FrequencyControl: the strictest threshold must not beat the
// unfiltered accuracy, confirming the accuracy/time trade-off direction.
func TestFig7FrequencyControl(t *testing.T) {
	tables, err := Fig7(QuickScale())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	tb := tables[0]
	unfiltered := cell(t, tb.Rows[0][1])
	strictest := cell(t, tb.Rows[len(tb.Rows)-1][1])
	if strictest > unfiltered+0.05 {
		t.Errorf("strict filtering improved accuracy: %.3f -> %.3f", unfiltered, strictest)
	}
}

// TestFig8OPQInfeasible: OPQ must report DNF beyond 30 events while EMS
// still produces results.
func TestFig8OPQInfeasible(t *testing.T) {
	tables, err := Fig8(QuickScale(), []int{10, 40})
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	acc := tables[0]
	opq := row(t, acc, "OPQ")
	if opq[2] != "DNF" {
		t.Errorf("OPQ at 40 events = %q, want DNF", opq[2])
	}
	ems := row(t, acc, "EMS")
	if ems[2] == "DNF" {
		t.Errorf("EMS DNF at 40 events")
	}
	if cell(t, ems[2]) <= 0 {
		t.Errorf("EMS f-measure at 40 events = %s", ems[2])
	}
}

// TestFig9DislocationDegradation: every method loses accuracy as more
// events are removed, and EMS stays at least as accurate as BHV.
func TestFig9DislocationDegradation(t *testing.T) {
	tables, err := Fig9(QuickScale(), 20, []int{1, 4})
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	acc := tables[0]
	ems := row(t, acc, "EMS")
	bhv := row(t, acc, "BHV")
	for col := 1; col <= 2; col++ {
		if cell(t, bhv[col]) > cell(t, ems[col])+1e-9 {
			t.Errorf("BHV beats EMS at %s", acc.Columns[col])
		}
	}
}

func TestRunMethodCountsDNF(t *testing.T) {
	m := Method{Name: "dnf", Match: func(*dataset.Pair) (matching.Mapping, error) {
		return nil, ErrDNF
	}}
	pairs, err := QuickScale().testbed(dataset.DSF, 0)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := RunMethod(m, pairs)
	if err != nil {
		t.Fatalf("RunMethod: %v", err)
	}
	if meas.DNF != len(pairs) {
		t.Errorf("DNF = %d, want %d", meas.DNF, len(pairs))
	}
	if cellQuality(meas) != "DNF" || cellTime(meas) != "DNF" {
		t.Errorf("cells = %q/%q, want DNF", cellQuality(meas), cellTime(meas))
	}
}
