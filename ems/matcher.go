package ems

import (
	"fmt"

	"repro/internal/core"
)

// Matcher supports incremental matching: as new traces stream into either
// log (the warehouse-ingestion shape of the paper's deployment), Rematch
// recomputes the similarity warm-started from the previous fixpoint, which
// typically converges in a fraction of the rounds a cold start needs. The
// fixpoint is unique (Theorem 1), so results equal a from-scratch Match up
// to the convergence threshold.
//
// Matcher is not safe for concurrent use.
type Matcher struct {
	opts       []Option
	log1, log2 *Log
	prev       *core.Result
}

// NewMatcher creates an incremental matcher over the two logs. The options
// apply to every Rematch call. Composite matching is not supported
// incrementally; use MatchComposite.
func NewMatcher(log1, log2 *Log, opts ...Option) (*Matcher, error) {
	if log1 == nil || log2 == nil {
		return nil, fmt.Errorf("ems: NewMatcher requires two logs")
	}
	if _, err := buildOptions(opts); err != nil {
		return nil, err
	}
	return &Matcher{opts: opts, log1: log1.Clone(), log2: log2.Clone()}, nil
}

// Append adds traces to one side (1 or 2) of the matcher's logs.
func (m *Matcher) Append(side int, traces ...Trace) error {
	var l *Log
	switch side {
	case 1:
		l = m.log1
	case 2:
		l = m.log2
	default:
		return fmt.Errorf("ems: side must be 1 or 2, got %d", side)
	}
	for _, t := range traces {
		if len(t) == 0 {
			return fmt.Errorf("ems: cannot append an empty trace")
		}
		l.Append(t.Clone())
	}
	return nil
}

// Logs returns copies of the matcher's current logs.
func (m *Matcher) Logs() (*Log, *Log) { return m.log1.Clone(), m.log2.Clone() }

// Rematch computes the current correspondences. The first call is a cold
// start; subsequent calls warm-start from the previous fixpoint.
func (m *Matcher) Rematch() (*Result, error) {
	o, err := buildOptions(m.opts)
	if err != nil {
		return nil, err
	}
	defer o.armStop()()
	o.armTrace()
	// Repair (when configured) runs on copies each call: the matcher's own
	// logs stay raw so appended traces are repaired against the statistics
	// of the grown log, not of an earlier repair's output.
	l1, l2, err := o.applyRepair(m.log1, m.log2)
	if err != nil {
		return nil, err
	}
	endGraph := o.span("graph-build")
	g1, err := buildGraph(l1, o)
	if err != nil {
		endGraph()
		return nil, err
	}
	g2, err := buildGraph(l2, o)
	endGraph()
	if err != nil {
		return nil, err
	}
	var seed *core.Seed
	if m.prev != nil {
		seed = &core.Seed{From: m.prev}
	}
	comp, err := core.NewComputation(g1, g2, o.sim, seed)
	if err != nil {
		return nil, err
	}
	if err := comp.Run(); err != nil {
		return nil, err
	}
	cr, err := comp.Result()
	if err != nil {
		return nil, err
	}
	m.prev = cr
	defer o.span("select")()
	return assemble(cr, nil, nil, o)
}
