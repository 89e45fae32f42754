// Package repair implements a staged event-log quality pipeline that runs
// between ingestion and dependency-graph construction: real-world logs
// arrive with duplicated events (stuttering sensors), locally disordered
// events (clock skew between recording components) and missing events
// (lost messages), and the committed robustness experiment shows how hard
// matching accuracy falls when such noise reaches the matcher unrepaired.
//
// A Pipeline is an ordered list of Stages. Each stage repairs one defect
// class per trace, using only aggregate evidence — the occurrence statistics
// and the dependency relation of the stage's own input log — so a single
// corrupted trace cannot steer its own repair. A stage that cannot bring a
// trace into a consistent state quarantines it with a typed Reason instead
// of failing the run: the trace is dropped from the output log and accounted
// in the Report, and matching proceeds on what remains.
package repair

import (
	"fmt"

	"repro/internal/depgraph"
	"repro/internal/eventlog"
)

// Reason classifies why a stage quarantined a trace.
type Reason string

const (
	// ReasonOrderUnstable marks a trace whose event order kept oscillating
	// after the bounded number of reorder passes — the dependency relation
	// carries no consistent order for it (e.g. a cyclic dominance between
	// its events), so no defensible repaired order exists.
	ReasonOrderUnstable Reason = "order-unstable"
	// ReasonBeyondRepair marks a trace that demanded more imputed events
	// than the per-trace budget: a trace missing that much is more likely a
	// recording failure than a repairable instance.
	ReasonBeyondRepair Reason = "beyond-repair"
)

// Counts are one trace's repair tallies from one stage.
type Counts struct {
	// Dropped counts duplicate events removed.
	Dropped int
	// Reordered counts adjacent transpositions applied.
	Reordered int
	// Imputed counts events inserted.
	Imputed int
}

func (c Counts) zero() bool { return c.Dropped == 0 && c.Reordered == 0 && c.Imputed == 0 }

// Context is the aggregate evidence a stage repairs against: the dependency
// graph of the stage's input log, which carries its normalized node and edge
// occurrence frequencies (Graph.NodeFreq, Graph.Freq), and the log's
// dirtiness. The pipeline rebuilds it before every stage, counting the
// stage's input log once, so later stages see the cleaned-up statistics of
// their predecessors' output.
type Context struct {
	// Graph is the dependency relation (Definition 1, without the
	// artificial event) of the log.
	Graph *depgraph.Graph
	// Dirtiness estimates how noisy the log being repaired is: the fraction
	// of adjacent event pairs that are immediate stutters (e == next).
	// Stuttering is the one noise signature measurable without ground truth
	// — clean playouts essentially never record an event twice in a row —
	// so stages use it to calibrate how aggressively they may intervene.
	// Pipeline.Run measures it once on the raw input log and pins that value
	// for every stage, since the collapse stage removes the very evidence.
	Dirtiness float64
}

// NewContext builds the repair context for a log, measuring its dirtiness.
func NewContext(l *eventlog.Log) (*Context, error) {
	return newContext(l, Dirtiness(l))
}

// newContext builds the repair context for a log with a given dirtiness.
func newContext(l *eventlog.Log, dirtiness float64) (*Context, error) {
	g, err := depgraph.Build(l)
	if err != nil {
		return nil, fmt.Errorf("repair: build dependency relation: %w", err)
	}
	return &Context{Graph: g, Dirtiness: dirtiness}, nil
}

// orderFreq returns the frequencies of the edges (a,b) and (b,a) in the
// context's log; an order the log never records has frequency 0.
func (c *Context) orderFreq(a, b eventlog.Event) (fwd, rev float64) {
	ia, ok1 := c.Graph.Index[a]
	ib, ok2 := c.Graph.Index[b]
	if !ok1 || !ok2 {
		return 0, 0
	}
	fwd, _ = c.Graph.Freq(ia, ib)
	rev, _ = c.Graph.Freq(ib, ia)
	return fwd, rev
}

// Dirtiness returns the stutter rate of a log: immediately repeated events
// as a fraction of all adjacent pairs.
func Dirtiness(l *eventlog.Log) float64 {
	pairs, stutters := 0, 0
	for _, t := range l.Traces {
		for i := 0; i+1 < len(t); i++ {
			pairs++
			if t[i] == t[i+1] {
				stutters++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(stutters) / float64(pairs)
}

// dirtyThreshold splits the adaptive stages' two regimes: below it a log is
// presumed essentially clean and stages only undo rare, overwhelmingly
// contradicted recordings; above it the log is visibly noisy and the stages
// trade some false repairs for catching much more genuine corruption.
const dirtyThreshold = 0.03

// Stage repairs one defect class in one trace. Repair must not mutate t;
// it returns the repaired trace, the per-trace tallies, and a non-empty
// Reason when the trace must be quarantined instead (counts are then
// discarded — a quarantined trace contributes nothing to the output).
type Stage interface {
	Name() string
	Repair(ctx *Context, t eventlog.Trace) (eventlog.Trace, Counts, Reason)
}

// StageReport aggregates one stage's effect over the whole log.
type StageReport struct {
	Stage             string `json:"stage"`
	EventsDropped     int    `json:"events_dropped"`
	EventsReordered   int    `json:"events_reordered"`
	EventsImputed     int    `json:"events_imputed"`
	TracesTouched     int    `json:"traces_touched"`
	TracesQuarantined int    `json:"traces_quarantined"`
}

// QuarantinedTrace identifies one quarantined trace: its index in the input
// log, the stage that gave up on it, and why.
type QuarantinedTrace struct {
	Index  int    `json:"index"`
	Stage  string `json:"stage"`
	Reason Reason `json:"reason"`
	Events int    `json:"events"`
}

// maxQuarantineSamples caps the per-report list of quarantined traces; the
// counters stay exact beyond it.
const maxQuarantineSamples = 32

// Report is the outcome of one Pipeline.Run over one log.
type Report struct {
	// Log names the repaired log.
	Log string `json:"log,omitempty"`
	// TracesIn and TracesOut are the trace counts before and after repair;
	// TracesIn == TracesOut + TracesQuarantined always holds.
	TracesIn  int `json:"traces_in"`
	TracesOut int `json:"traces_out"`
	// Totals over all stages.
	EventsDropped     int `json:"events_dropped"`
	EventsReordered   int `json:"events_reordered"`
	EventsImputed     int `json:"events_imputed"`
	TracesTouched     int `json:"traces_touched"`
	TracesQuarantined int `json:"traces_quarantined"`
	// Stages holds the per-stage breakdown in execution order.
	Stages []StageReport `json:"stages,omitempty"`
	// Quarantined samples up to maxQuarantineSamples quarantined traces.
	Quarantined []QuarantinedTrace `json:"quarantined,omitempty"`
}

// Touched reports whether the repair changed the log at all.
func (r *Report) Touched() bool {
	return r.TracesTouched > 0 || r.TracesQuarantined > 0
}

// Pipeline is an ordered list of repair stages.
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline over the given stages, run in order.
func NewPipeline(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("repair: pipeline needs at least one stage")
	}
	seen := make(map[string]bool, len(stages))
	for _, st := range stages {
		if st == nil {
			return nil, fmt.Errorf("repair: nil stage")
		}
		if seen[st.Name()] {
			return nil, fmt.Errorf("repair: duplicate stage %q", st.Name())
		}
		seen[st.Name()] = true
	}
	return &Pipeline{stages: stages}, nil
}

// Stages lists the pipeline's stage names in execution order.
func (p *Pipeline) Stages() []string {
	out := make([]string, len(p.stages))
	for i, st := range p.stages {
		out[i] = st.Name()
	}
	return out
}

// Options tune the default three-stage pipeline. The zero value picks the
// documented defaults for every knob.
type Options struct {
	// Window is the duplicate-collapse distance: a repeated event within
	// Window positions of an earlier copy is dropped. <= 0 means 1
	// (immediately adjacent repeats only).
	Window int
	// OrderRatio is the dominance ratio of order repair: an adjacent pair
	// (a,b) is swapped back only when the reverse order (b,a) is at least
	// OrderRatio times as frequent in the log. <= 0 adapts to the log's
	// measured dirtiness (4 when clean-looking, 2 when visibly noisy).
	OrderRatio float64
	// OrderMaxFwd caps the frequency of an order read as disorder: a pair
	// recorded by more than this fraction of traces is a legitimate
	// interleaving, not noise, and is never swapped. <= 0 means 0.25;
	// >= 1 disables the cap.
	OrderMaxFwd float64
	// OrderMaxPasses bounds reorder passes per trace before the trace is
	// quarantined as order-unstable. <= 0 derives it from the trace length.
	OrderMaxPasses int
	// ImputeRatio is how many times stronger the indirect path a->c->b must
	// be than the direct edge a->b before c is imputed between a and b.
	// <= 0 means 4.
	ImputeRatio float64
	// ImputeMinPath is the minimum frequency both path edges a->c and c->b
	// must carry for an imputation. <= 0 adapts to the log's measured
	// dirtiness (0.5 when clean-looking, 0.25 when visibly noisy).
	ImputeMinPath float64
	// ImputeMax is the per-trace imputation budget; a trace demanding more
	// insertions is quarantined as beyond repair. <= 0 means 3.
	ImputeMax int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 1
	}
	// OrderRatio and ImputeMinPath stay 0 when unset: the stages then adapt
	// them to the measured dirtiness of each log they repair.
	if o.OrderMaxFwd <= 0 {
		o.OrderMaxFwd = 0.25
	}
	if o.ImputeRatio <= 0 {
		o.ImputeRatio = 4
	}
	if o.ImputeMax <= 0 {
		o.ImputeMax = 3
	}
	return o
}

// Default builds the standard pipeline: duplicate collapse, then order
// repair, then missing-event imputation — each stage cleaning the statistics
// the next one conditions on.
func Default(o Options) *Pipeline {
	o = o.withDefaults()
	p, err := NewPipeline(
		&CollapseDuplicates{Window: o.Window},
		&RepairOrder{Ratio: o.OrderRatio, MaxFwd: o.OrderMaxFwd, MaxPasses: o.OrderMaxPasses},
		&ImputeMissing{Ratio: o.ImputeRatio, MinPath: o.ImputeMinPath, MaxPerTrace: o.ImputeMax},
	)
	if err != nil {
		panic(err) // unreachable: the stage list is static and well-formed
	}
	return p
}

// Run repairs the log through every stage and returns the repaired log plus
// the report. The input log is never mutated. Run fails only when the log is
// structurally invalid, when the dependency relation cannot be built, or
// when a stage quarantines every remaining trace (an empty log cannot be
// matched, so there is nothing graceful left to degrade to).
func (p *Pipeline) Run(l *eventlog.Log) (*eventlog.Log, *Report, error) {
	if err := l.Validate(); err != nil {
		return nil, nil, fmt.Errorf("repair: %w", err)
	}
	type liveTrace struct {
		idx     int // index in the input log
		t       eventlog.Trace
		touched bool
	}
	cur := make([]liveTrace, len(l.Traces))
	for i, t := range l.Traces {
		cur[i] = liveTrace{idx: i, t: t.Clone()}
	}
	rep := &Report{Log: l.Name, TracesIn: l.Len()}
	dirt := Dirtiness(l)
	for _, st := range p.stages {
		work := &eventlog.Log{Name: l.Name, Traces: make([]eventlog.Trace, len(cur))}
		for i := range cur {
			work.Traces[i] = cur[i].t
		}
		// Adaptive stages must calibrate against the raw input's dirtiness:
		// the collapse stage removes the stutters the estimate is read from,
		// so the per-stage context would otherwise always look clean.
		ctx, err := newContext(work, dirt)
		if err != nil {
			return nil, nil, err
		}
		sr := StageReport{Stage: st.Name()}
		next := make([]liveTrace, 0, len(cur))
		for _, lv := range cur {
			out, c, reason := st.Repair(ctx, lv.t)
			if reason != "" {
				sr.TracesQuarantined++
				rep.TracesQuarantined++
				if len(rep.Quarantined) < maxQuarantineSamples {
					rep.Quarantined = append(rep.Quarantined, QuarantinedTrace{
						Index: lv.idx, Stage: st.Name(), Reason: reason, Events: len(lv.t),
					})
				}
				continue
			}
			if !c.zero() || !equalTrace(out, lv.t) {
				sr.TracesTouched++
				lv.touched = true
			}
			sr.EventsDropped += c.Dropped
			sr.EventsReordered += c.Reordered
			sr.EventsImputed += c.Imputed
			lv.t = out
			next = append(next, lv)
		}
		rep.EventsDropped += sr.EventsDropped
		rep.EventsReordered += sr.EventsReordered
		rep.EventsImputed += sr.EventsImputed
		rep.Stages = append(rep.Stages, sr)
		cur = next
		if len(cur) == 0 {
			rep.TracesOut = 0
			return nil, rep, fmt.Errorf("repair: stage %q quarantined every trace of log %q", st.Name(), l.Name)
		}
	}
	out := &eventlog.Log{Name: l.Name, Traces: make([]eventlog.Trace, len(cur))}
	for i, lv := range cur {
		out.Traces[i] = lv.t
		if lv.touched {
			rep.TracesTouched++
		}
	}
	rep.TracesOut = len(cur)
	return out, rep, nil
}

func equalTrace(a, b eventlog.Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
