package chaos

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"

	"repro/ems"
	"repro/internal/cluster"
	"repro/internal/failpoint"
	"repro/internal/journal"
	"repro/internal/paperexample"
)

func TestParseScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty rules", `{"seed": 1, "rules": []}`},
		{"unknown point", `{"seed": 1, "rules": [{"point": "disk.seek"}]}`},
		{"prob out of range", `{"seed": 1, "rules": [{"point": "engine.round", "prob": 1.5}]}`},
		{"negative prob", `{"seed": 1, "rules": [{"point": "engine.round", "prob": -0.1}]}`},
		{"fault wrong for point", `{"seed": 1, "rules": [{"point": "engine.round", "fault": "enospc"}]}`},
		{"torn outside write", `{"seed": 1, "rules": [{"point": "journal.sync", "fault": "torn"}]}`},
		{"peer fault on journal", `{"seed": 1, "rules": [{"point": "journal.write", "fault": "http-503"}]}`},
		{"not json", `{"seed": `},
	}
	for _, tc := range cases {
		if _, err := ParseSchedule([]byte(tc.json)); err == nil {
			t.Errorf("%s: schedule accepted, want error", tc.name)
		}
	}

	good := `{
		"seed": 2014,
		"rules": [
			{"point": "journal.sync", "fault": "enospc", "after": 3, "count": 2},
			{"point": "engine.round", "fault": "delay", "delay_ms": 5, "prob": 0.5},
			{"point": "peer.call", "fault": "http-503", "node": "node-b", "count": 1}
		]
	}`
	s, err := ParseSchedule([]byte(good))
	if err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if s.Seed != 2014 || len(s.Rules) != 3 {
		t.Errorf("parsed seed=%d rules=%d, want 2014/3", s.Seed, len(s.Rules))
	}
}

// TestFireAfterCountSemantics pins the arming window: After skips, Count
// bounds, and an exhausted rule never fires again.
func TestFireAfterCountSemantics(t *testing.T) {
	a := &armedRule{Rule: Rule{Point: failpoint.EngineRound, After: 3, Count: 2}, rng: newRuleRNG(0, 0)}
	var fires []int
	for hit := 1; hit <= 10; hit++ {
		if a.fire() {
			fires = append(fires, hit)
		}
	}
	if len(fires) != 2 || fires[0] != 4 || fires[1] != 5 {
		t.Errorf("fired on hits %v, want [4 5] (After=3, Count=2)", fires)
	}
}

// TestFireDeterministicReplay is the property the chaos suite's replay
// target depends on: the same rule under the same seed fires on exactly the
// same hits, every run, while a different seed draws a different pattern.
func TestFireDeterministicReplay(t *testing.T) {
	const hits = 500
	pattern := func(seed int64, idx int) []bool {
		a := &armedRule{Rule: Rule{Point: failpoint.EngineRound, Prob: 0.5}, rng: newRuleRNG(seed, idx)}
		out := make([]bool, hits)
		for i := range out {
			out[i] = a.fire()
		}
		return out
	}
	p1, p2 := pattern(2014, 0), pattern(2014, 0)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at hit %d", i+1)
		}
	}
	p3 := pattern(2015, 0)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 2014 and 2015 produced identical 500-hit patterns")
	}
	// Rules draw from per-index streams: rule 0 and rule 1 of one schedule
	// must not fire in lockstep.
	p4 := pattern(2014, 1)
	same = true
	for i := range p1 {
		if p1[i] != p4[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("rule indexes 0 and 1 share one random stream")
	}
}

// TestActivateJournalFaultsReplayIdentically drives a real journal through
// an activated schedule twice and requires the injected failure pattern —
// which appends fail, and with what — to be byte-for-byte identical. This is
// the end-to-end determinism contract: seeded schedule in, reproducible
// fault sequence out.
func TestActivateJournalFaultsReplayIdentically(t *testing.T) {
	sched := &Schedule{
		Seed: 2014,
		Rules: []Rule{
			{Point: failpoint.JournalWrite, Fault: "enospc", After: 2, Count: 1},
			{Point: failpoint.JournalWrite, Fault: "torn", After: 6, Count: 1},
			{Point: failpoint.JournalSync, Fault: "error", Prob: 0.3},
		},
	}
	const appends = 24
	run := func() []string {
		restore, err := sched.Activate()
		if err != nil {
			t.Fatalf("Activate: %v", err)
		}
		defer restore()
		j, _, err := journal.Open(t.TempDir(), journal.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		var outcomes []string
		for i := 0; i < appends; i++ {
			err := j.Append([]byte(fmt.Sprintf("record-%02d", i)))
			switch {
			case err == nil:
				outcomes = append(outcomes, "ok")
			case errors.Is(err, syscall.ENOSPC):
				outcomes = append(outcomes, "enospc")
			case errors.Is(err, journal.ErrShortWrite):
				outcomes = append(outcomes, "torn")
			case errors.Is(err, ErrInjected):
				outcomes = append(outcomes, "injected")
			default:
				t.Fatalf("append %d: unexpected non-injected error: %v", i, err)
			}
		}
		return outcomes
	}

	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at append %d: %q vs %q\nfirst:  %v\nsecond: %v",
				i, first[i], second[i], first, second)
		}
	}
	// The count-bounded rules must actually have fired.
	count := func(of []string, kind string) int {
		n := 0
		for _, o := range of {
			if o == kind {
				n++
			}
		}
		return n
	}
	if count(first, "enospc") != 1 {
		t.Errorf("enospc fired %d times, want exactly 1 (Count=1)", count(first, "enospc"))
	}
	if count(first, "torn") != 1 {
		t.Errorf("torn fired %d times, want exactly 1 (Count=1)", count(first, "torn"))
	}
	if count(first, "ok") == 0 {
		t.Error("every append failed; the journal never recovered between faults")
	}
}

// TestActivatePeerFaults covers the peer.call faults through a real
// cluster.Client: a count-bounded 503, a flapping peer alternating
// fail/pass, and the Node filter leaving other peers untouched.
func TestActivatePeerFaults(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"governor": "ok", "load": 0}`)
	}))
	defer backend.Close()

	sched := &Schedule{
		Seed: 7,
		Rules: []Rule{
			{Point: failpoint.PeerCall, Fault: "http-503", Node: "node-b", Count: 1},
			{Point: failpoint.PeerCall, Fault: "flap", Node: "node-c"},
		},
	}
	restore, err := sched.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	defer restore()

	ctx := t.Context()
	client := func(id string) *cluster.Client {
		return cluster.NewClient(cluster.Node{ID: id, Addr: backend.URL}, 0)
	}

	// node-a matches no rule: always healthy.
	if err := client("node-a").Healthy(ctx); err != nil {
		t.Errorf("unfaulted peer reported unhealthy: %v", err)
	}
	// node-b: exactly one injected 503, then clean.
	b := client("node-b")
	if err := b.Healthy(ctx); !cluster.IsUnavailable(err) {
		t.Errorf("first node-b probe: got %v, want injected unavailable", err)
	}
	if err := b.Healthy(ctx); err != nil {
		t.Errorf("second node-b probe after Count=1 exhausted: %v", err)
	}
	// node-c flaps: odd firings fail, even firings pass.
	c := client("node-c")
	for i, wantErr := range []bool{true, false, true, false} {
		err := c.Healthy(ctx)
		if wantErr && !cluster.IsUnavailable(err) {
			t.Errorf("flap probe %d: got %v, want unavailable", i+1, err)
		}
		if !wantErr && err != nil {
			t.Errorf("flap probe %d: got %v, want success", i+1, err)
		}
	}
}

// TestActivateEngineDelayPreservesResults arms a slow-round fault over a
// full matching run: the injection may stretch wall time but must never
// change a single similarity value.
func TestActivateEngineDelayPreservesResults(t *testing.T) {
	want, err := ems.Match(paperexample.Log1(), paperexample.Log2())
	if err != nil {
		t.Fatalf("baseline match: %v", err)
	}

	sched := &Schedule{
		Seed:  2014,
		Rules: []Rule{{Point: failpoint.EngineRound, Fault: "delay", DelayMS: 1, Prob: 0.5}},
	}
	restore, err := sched.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	defer restore()

	got, err := ems.Match(paperexample.Log1(), paperexample.Log2())
	if err != nil {
		t.Fatalf("match under chaos: %v", err)
	}
	if len(got.Sim) != len(want.Sim) {
		t.Fatalf("sim length %d, want %d", len(got.Sim), len(want.Sim))
	}
	for i := range want.Sim {
		if math.Float64bits(want.Sim[i]) != math.Float64bits(got.Sim[i]) {
			t.Fatalf("sim[%d] = %v, want %v: a delay fault changed the result", i, got.Sim[i], want.Sim[i])
		}
	}
}
