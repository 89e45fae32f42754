// Package ems is the public API of this repository: an implementation of
// "Matching Heterogeneous Event Data" (Zhu, Song, Lian, Wang, Zou — SIGMOD
// 2014). It matches events across heterogeneous event logs that exhibit
// opaque names, dislocated traces and composite events, using the paper's
// iterative Event Matching Similarity (EMS) over event dependency graphs.
//
// Quick start:
//
//	res, err := ems.Match(log1, log2)        // 1:1 event correspondences
//	res, err := ems.MatchComposite(log1, log2) // m:n composite matching
//
// Both entry points accept functional options to control the similarity
// (alpha/decay/labels), the exact-vs-estimation trade-off of Algorithm 1,
// pruning, and correspondence selection.
//
// Match runs the adaptive fast path by default: exact rounds until the
// geometric convergence tail is detected, then the closed-form estimation of
// Section 3.5 plus one certifying residual round. The certified worst-case
// error is returned in Result.ErrorBound; WithExact restores plain exact
// iteration, WithFastPath tunes the error budget. MatchComposite always runs
// exact (its merge decisions compare similarity averages).
package ems

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/label"
	"repro/internal/matching"
)

// Trace is a finite sequence of event names recorded for one process
// instance.
type Trace = eventlog.Trace

// Log is a multiset of traces for one process.
type Log = eventlog.Log

// Correspondence relates a group of log-1 events to a group of log-2
// events; singleton groups express 1:1 matches.
type Correspondence = matching.Correspondence

// Mapping is a set of correspondences.
type Mapping = matching.Mapping

// Quality holds precision, recall and f-measure of a mapping against a
// ground truth.
type Quality = matching.Quality

// LabelSimilarity scores the typographic similarity of two event names in
// [0, 1].
type LabelSimilarity = label.Similarity

// ErrStopped is the sentinel matched (via errors.Is) by every error a match
// call returns when it was aborted by WithContext cancellation or a
// WithTimeout deadline. errors.Unwrap-ing such an error (or errors.Is with
// context.Canceled / context.DeadlineExceeded) reveals the cause.
var ErrStopped = core.ErrStopped

// Direction selects forward, backward, or averaged similarity propagation.
type Direction = core.Direction

// Propagation directions, re-exported from the core engine.
const (
	Forward  = core.Forward
	Backward = core.Backward
	Both     = core.Both
)

// NewLog returns an empty log with the given name.
func NewLog(name string) *Log { return eventlog.New(name) }

// ReadCSV parses a two-column case,event CSV into a log.
func ReadCSV(r io.Reader, name string) (*Log, error) { return eventlog.ReadCSV(r, name) }

// WriteCSV writes a log as a two-column case,event CSV.
func WriteCSV(w io.Writer, l *Log) error { return eventlog.WriteCSV(w, l) }

// ReadXML parses a log from the minimal XES-like XML dialect.
func ReadXML(r io.Reader) (*Log, error) { return eventlog.ReadXML(r) }

// WriteXML writes a log in the minimal XES-like XML dialect.
func WriteXML(w io.Writer, l *Log) error { return eventlog.WriteXML(w, l) }

// ReadXES parses a standard XES (IEEE 1849) document as produced by
// process-mining tools, extracting each event's concept:name.
func ReadXES(r io.Reader) (*Log, error) { return eventlog.ReadXES(r) }

// ReadOptions configure the log readers; Lenient converts malformed records
// and per-record size-limit violations into counted skips instead of
// aborting the file.
type ReadOptions = eventlog.ReadOptions

// SkipReport counts the records a lenient read dropped.
type SkipReport = eventlog.SkipReport

// ReadCSVWith is ReadCSV with options (notably lenient mode, which skips
// and counts malformed rows instead of failing the file).
func ReadCSVWith(r io.Reader, name string, o ReadOptions) (*Log, *SkipReport, error) {
	return eventlog.ReadCSVWith(r, name, o)
}

// ReadXMLWith is ReadXML with options (lenient mode skips and counts
// nameless events and the traces they empty out).
func ReadXMLWith(r io.Reader, o ReadOptions) (*Log, *SkipReport, error) {
	return eventlog.ReadXMLWith(r, o)
}

// ReadXESWith is ReadXES with options (lenient mode skips and counts events
// without a usable concept:name and the traces they empty out).
func ReadXESWith(r io.Reader, o ReadOptions) (*Log, *SkipReport, error) {
	return eventlog.ReadXESWith(r, o)
}

// WriteXES writes the log as a minimal valid XES document.
func WriteXES(w io.Writer, l *Log) error { return eventlog.WriteXES(w, l) }

// SelectionStrategy chooses how pair-wise similarities become
// correspondences; see the constants below.
type SelectionStrategy = matching.Strategy

// Selection strategies: the paper's maximum-total-similarity assignment,
// plus the greedy and stable-matching alternatives its related work
// outlines.
const (
	SelectMaxTotal = matching.MaxTotal
	SelectGreedy   = matching.Greedy
	SelectStable   = matching.Stable
)

// QGramCosine returns the q-gram cosine label similarity the paper uses.
func QGramCosine(q int) LabelSimilarity { return label.QGramCosine(q) }

// Levenshtein is the normalized edit-distance label similarity.
func Levenshtein(a, b string) float64 { return label.Levenshtein(a, b) }

// JaroWinkler is the prefix-boosted Jaro similarity, suited to labels that
// differ by suffixes.
func JaroWinkler(a, b string) float64 { return label.JaroWinkler(a, b) }

// MongeElkan lifts a base label similarity to multi-word labels, tolerating
// word reordering.
func MongeElkan(base LabelSimilarity) LabelSimilarity { return label.MongeElkan(base) }

// Evaluate scores a found mapping against the ground truth.
func Evaluate(found, truth Mapping) Quality { return matching.Evaluate(found, truth) }

// Consensus combines several mappings of the same log pair (different
// configurations, or contradictory human opinions) into one: only
// correspondences supported by at least quorum inputs survive, conflicts
// are resolved by support then score, and scores are averaged.
func Consensus(mappings []Mapping, quorum int) (Mapping, error) {
	return matching.Consensus(mappings, quorum)
}

// AddNoise returns a copy of the log with random corruption applied: each
// event dropped with dropProb, swapped with its successor with swapProb,
// and duplicated with dupProb. Useful for robustness testing.
func AddNoise(rng *rand.Rand, l *Log, dropProb, swapProb, dupProb float64) (*Log, error) {
	return eventlog.AddNoise(rng, l, eventlog.NoiseOptions{
		DropProb: dropProb, SwapProb: swapProb, DupProb: dupProb,
	})
}

// ExpandComposite splits a merged composite node name into its constituent
// event names; plain names yield a singleton. Use it to interpret the
// Names1/Names2 of a composite match result.
func ExpandComposite(name string) []string { return composite.SplitName(name) }

// Result is the outcome of a match: the pair-wise similarities between the
// (possibly merged) events of the two logs and the selected correspondences.
type Result struct {
	// Names1 and Names2 are the event names of each side in matrix order.
	// After composite matching, merged nodes carry joined names; use
	// ExpandComposite to split them.
	Names1, Names2 []string
	// Sim is the row-major |Names1| x |Names2| similarity matrix.
	Sim []float64
	// Mapping is the selected set of correspondences, best first. Groups
	// are expanded to original event names.
	Mapping Mapping
	// Evaluations counts how many times the iterative similarity formula
	// was evaluated.
	Evaluations int
	// Rounds is the number of iteration rounds performed.
	Rounds int
	// Estimated reports that the similarity was finished by a closed-form
	// estimation pass (the default fast path's adaptive cutover, or an
	// explicit WithEstimation) instead of iterating to convergence.
	Estimated bool
	// ErrorBound is the certified per-pair absolute error bound of a
	// fast-path run: no Sim entry is further than this from the exact
	// fixpoint (a-posteriori Banach bound, worst direction). It is at most
	// the fast-path budget unless the run hit its round cap. Zero for exact
	// runs.
	ErrorBound float64
	// Pruned counts pair evaluations skipped as provably converged
	// (Proposition 2 bounds), summed over rounds and directions.
	Pruned int
	// Composites1 and Composites2 list the accepted composite events per
	// side (nil for plain matching).
	Composites1, Composites2 [][]string
	// Repair1 and Repair2 report what the dirty-log repair pipeline did to
	// each log (nil unless the match ran with WithRepair).
	Repair1, Repair2 *RepairReport
	// Degraded names the rung of the degradation ladder an overloaded
	// server dropped this job to ("fast-path" or "estimate-only"); empty
	// when the job ran exactly as requested. Library matches never set it.
	Degraded string
}

// At returns the similarity of the i-th event of log 1 and the j-th event
// of log 2.
func (r *Result) At(i, j int) float64 { return r.Sim[i*len(r.Names2)+j] }

// Similarity looks up the similarity of two events by name; ok is false
// when either name is unknown.
func (r *Result) Similarity(a, b string) (v float64, ok bool) {
	i, j := -1, -1
	for k, n := range r.Names1 {
		if n == a {
			i = k
		}
	}
	for k, n := range r.Names2 {
		if n == b {
			j = k
		}
	}
	if i < 0 || j < 0 {
		return 0, false
	}
	return r.At(i, j), true
}

// Match computes the 1:1 event matching between two logs: dependency graphs
// are built and extended with the artificial event, the EMS similarity is
// iterated to convergence (or estimated, per options), and correspondences
// are selected by maximum total similarity.
func Match(log1, log2 *Log, opts ...Option) (*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	defer o.armStop()()
	o.armTrace()
	log1, log2, err = o.applyRepair(log1, log2)
	if err != nil {
		return nil, err
	}
	endGraph := o.span("graph-build")
	g1, err := buildGraph(log1, o)
	if err != nil {
		endGraph()
		return nil, err
	}
	g2, err := buildGraph(log2, o)
	endGraph()
	if err != nil {
		return nil, err
	}
	c, err := core.NewComputation(g1, g2, o.sim, nil)
	if err != nil {
		return nil, err
	}
	if o.resume != nil {
		if err := c.Restore(o.resume); err != nil {
			return nil, err
		}
	}
	if err := c.Run(); err != nil {
		return nil, err
	}
	cr, err := c.Result()
	if err != nil {
		return nil, err
	}
	defer o.span("select")()
	return assemble(cr, nil, nil, o)
}

// MatchComposite computes the m:n matching between two logs: candidate
// composite events are discovered as SEQ patterns in both logs and greedily
// merged while the average similarity improves by at least delta
// (Algorithm 2 of the paper), then correspondences are selected from the
// final similarity.
func MatchComposite(log1, log2 *Log, opts ...Option) (*Result, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.resume != nil {
		return nil, fmt.Errorf("ems: WithResume is not supported for composite matching")
	}
	if o.checkpoint != nil {
		return nil, fmt.Errorf("ems: WithCheckpoints is not supported for composite matching")
	}
	defer o.armStop()()
	o.armTrace()
	log1, log2, err = o.applyRepair(log1, log2)
	if err != nil {
		return nil, err
	}
	endDiscover := o.span("discover")
	c1 := composite.Discover(log1, o.discover)
	c2 := composite.Discover(log2, o.discover)
	endDiscover()
	ccfg := composite.Config{
		Sim:          o.sim,
		Delta:        o.delta,
		MinFrequency: o.minFrequency,
		MaxSteps:     o.maxMergeSteps,
		UseUnchanged: o.useUnchanged,
		UseBounds:    o.useBounds,
	}
	// Composite matching compares average similarities across many short
	// computations and reuses values across merge steps (Proposition 4);
	// estimation error inside a merge decision could flip an accept/reject,
	// so the greedy loop always runs the exact engine.
	ccfg.Sim.FastPath = false
	// The greedy merge loop runs one short similarity computation per
	// candidate; per-round observation and per-computation spans would be
	// noise, so only the facade-level composite span survives into it.
	ccfg.Sim.OnRound = nil
	ccfg.Sim.Span = nil
	endComposite := o.span("composite")
	gr, err := composite.Greedy(log1, log2, c1, c2, ccfg)
	endComposite()
	if err != nil {
		return nil, err
	}
	var comp1, comp2 [][]string
	for _, c := range gr.Merged1 {
		comp1 = append(comp1, append([]string(nil), c.Events...))
	}
	for _, c := range gr.Merged2 {
		comp2 = append(comp2, append([]string(nil), c.Events...))
	}
	endSelect := o.span("select")
	res, err := assemble(gr.Final, comp1, comp2, o)
	endSelect()
	if err != nil {
		return nil, err
	}
	res.Evaluations = gr.Stats.Evaluations
	return res, nil
}

func assemble(cr *core.Result, comp1, comp2 [][]string, o *options) (*Result, error) {
	m, err := matching.SelectWith(o.strategy, cr.Names1, cr.Names2, cr.Sim, o.selectionThreshold, composite.SplitName)
	if err != nil {
		return nil, err
	}
	return &Result{
		Names1:      cr.Names1,
		Names2:      cr.Names2,
		Sim:         cr.Sim,
		Mapping:     m,
		Evaluations: cr.Evaluations,
		Rounds:      cr.Rounds,
		Estimated:   cr.Estimated,
		ErrorBound:  cr.ErrorBound,
		Pruned:      cr.Pruned,
		Composites1: comp1,
		Composites2: comp2,
		Repair1:     o.rep1,
		Repair2:     o.rep2,
	}, nil
}

func buildGraph(l *Log, o *options) (*depgraph.Graph, error) {
	var g *depgraph.Graph
	var err error
	if o.markov {
		g, err = depgraph.BuildMarkov(l)
	} else {
		g, err = depgraph.Build(l)
	}
	if err != nil {
		return nil, err
	}
	ga, err := g.AddArtificial()
	if err != nil {
		return nil, err
	}
	if o.minFrequency > 0 {
		ga = ga.FilterMinFrequency(o.minFrequency)
	}
	return ga, nil
}
