package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"repro/ems"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/matching"
	"repro/internal/obs"
)

// match-composite: one caller runs ems.MatchComposite with q-gram label
// similarity under the Figure 11 protocol (alpha 0.7, delta 0.005, eight
// candidates per log, selection threshold 0.25) over DS-FB pairs of 40
// activities with half-opaque names, two injected composites and
// inject-style dislocation. Many short exact computations, each rebuilding
// its label matrix: composite search, labels and engine set-up dominate.
var compositeOpts = dataset.Options{Events: 40, Traces: 60, OpaqueFraction: 0.5, CompositeMerges: 2}

const (
	compositeModels     = 51
	compositeRounds     = 2
	compositeAlpha      = 0.7
	compositeDelta      = 0.005
	compositeCandidates = 8
	compositeThreshold  = 0.25
)

// compositePairOpts gives pair k its dislocation: one or two injected
// events at both trace ends, alternating, as the DS-FB testbed draws them.
func compositePairOpts(k int) dataset.Options {
	o := compositeOpts
	o.ExtraFront, o.ExtraBack = 1+k%2, 1+k%2
	return o
}

func compositeOptions(labels ems.LabelSimilarity) []ems.Option {
	return []ems.Option{
		ems.WithAlpha(compositeAlpha),
		ems.WithLabelSimilarity(labels),
		ems.WithDelta(compositeDelta),
		ems.WithCandidateDiscovery(composite.DefaultDiscoverOptions().Confidence,
			composite.DefaultDiscoverOptions().MaxLen, compositeCandidates),
		ems.WithSelectionThreshold(compositeThreshold),
	}
}

func runComposite(cfg runConfig) (*result, error) {
	labels := ems.QGramCosine(3)
	w := libWorkload{
		opts:       compositePairOpts,
		models:     compositeModels,
		warm:       []int64{101, 102},
		baseRounds: compositeRounds,
		match: func(l1, l2 *ems.Log) (*ems.Result, error) {
			return ems.MatchComposite(l1, l2, compositeOptions(labels)...)
		},
		check:        checkComposite,
		trace:        traceComposite,
		sharesEvents: true,
	}
	if cfg.toy {
		w.opts = func(k int) dataset.Options {
			o := compositePairOpts(k)
			o.Events, o.Traces = 12, 30
			return o
		}
		w.models, w.warm = 2, w.warm[:1]
	}
	return runLibrary(cfg, w)
}

// mergedLogs applies a composite result's accepted merges, in acceptance
// order, to the input logs.
func mergedLogs(res *ems.Result, l1, l2 *ems.Log) (*ems.Log, *ems.Log) {
	for _, c := range res.Composites1 {
		l1 = l1.MergeConsecutive(c, composite.JoinName(c))
	}
	for _, c := range res.Composites2 {
		l2 = l2.MergeConsecutive(c, composite.JoinName(c))
	}
	return l1, l2
}

// checkComposite checks a composite result against the reference fixpoint
// over the merged logs. Composite matching runs the exact engine, which
// certifies nothing itself; the bound it may not exceed is the engine's
// stopping tolerance, widened by the unchanged-similarity seeding
// (Proposition 4) that carries each accepted step's tolerance into the
// next. The returned bound is the one the reference certifies: the
// observed deviation plus the reference's own tolerance.
func checkComposite(in input, res *ems.Result, l1, l2 *ems.Log) (float64, error) {
	m1, m2 := mergedLogs(res, l1, l2)
	g1, g2, err := refGraphs(m1, m2)
	if err != nil {
		return 0, err
	}
	ref, err := refSimilarity(g1, g2, refConfig{alpha: compositeAlpha, c: core.DefaultConfig().C, labels: ems.QGramCosine(3)})
	if err != nil {
		return 0, err
	}
	dev, err := maxDeviation(res, ref)
	if err != nil {
		return 0, err
	}
	ac := compositeAlpha * core.DefaultConfig().C
	steps := len(res.Composites1) + len(res.Composites2)
	allowed := engineTolerance(compositeAlpha)*math.Pow(1/(1-ac), float64(steps)) + ref.tol
	if dev > allowed {
		return 0, fmt.Errorf("max |Sim - reference| = %.3g exceeds the exact tolerance %.3g", dev, allowed)
	}
	return dev + ref.tol, nil
}

// countingLabels wraps a label similarity and counts its calls.
type countingLabels struct {
	sim   ems.LabelSimilarity
	calls atomic.Int64
}

func (c *countingLabels) similarity(a, b string) float64 {
	c.calls.Add(1)
	return c.sim(a, b)
}

// traceComposite is the traced run of match-composite: each operation is
// decomposed into eventlog.ReadCSV, composite.Discover, composite.Greedy
// and matching.SelectWith, with the engine's span hook armed on the greedy
// search's computations and a counting label similarity, and compared bit
// for bit with ems.MatchComposite, which is timed too for the tracing
// overhead.
func traceComposite(cfg runConfig, timed []input) (*result, error) {
	chk := &checker{}
	var parse, discover, greedy, sel, wall, plain, agree, labm []float64
	var calls, tried, aborted, steps, evals, edges, shared float64
	n := rounds(cfg, compositeRounds)
	ops := 0
	dopts := composite.DefaultDiscoverOptions()
	dopts.MaxCandidates = compositeCandidates
	for r := 0; r < n; r++ {
		for k, in := range timed {
			labels := &countingLabels{sim: ems.QGramCosine(3)}
			t0 := time.Now()
			l1, err := eventlog.ReadCSV(bytes.NewReader(in.csv1), "log1")
			if err != nil {
				return nil, err
			}
			l2, err := eventlog.ReadCSV(bytes.NewReader(in.csv2), "log2")
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			c1 := composite.Discover(l1, dopts)
			c2 := composite.Discover(l2, dopts)
			t2 := time.Now()
			tr := obs.NewTrace("")
			ecfg := core.DefaultConfig()
			ecfg.Alpha = compositeAlpha
			ecfg.Labels = labels.similarity
			ecfg.Tiled = true
			ecfg.Span = tr.Span
			gr, err := composite.Greedy(l1, l2, c1, c2, composite.Config{
				Sim: ecfg, Delta: compositeDelta, UseUnchanged: true, UseBounds: true,
			})
			if err != nil {
				return nil, err
			}
			t3 := time.Now()
			mp, err := matching.SelectWith(matching.MaxTotal, gr.Final.Names1, gr.Final.Names2, gr.Final.Sim,
				compositeThreshold, composite.SplitName)
			if err != nil {
				return nil, err
			}
			t4 := time.Now()

			p0 := time.Now()
			pl1, pl2, err := readPair(in)
			if err != nil {
				return nil, err
			}
			want, err := ems.MatchComposite(pl1, pl2, compositeOptions(ems.QGramCosine(3))...)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ms(time.Since(p0)))

			parse = append(parse, ms(t1.Sub(t0)))
			discover = append(discover, ms(t2.Sub(t1)))
			greedy = append(greedy, ms(t3.Sub(t2)))
			sel = append(sel, ms(t4.Sub(t3)))
			wall = append(wall, ms(t4.Sub(t0)))
			spans := spanTotals(tr)
			agree = append(agree, spans["agreement-cache"])
			labm = append(labm, spans["label-matrix"])
			calls += float64(labels.calls.Load())
			tried += float64(gr.Stats.CandidatesTried)
			aborted += float64(gr.Stats.CandidatesAborted)
			steps += float64(gr.Stats.StepsAccepted)
			evals += float64(gr.Stats.Evaluations)
			if g1, g2, err := refGraphs(l1, l2); err == nil {
				edges += float64(g1.EdgeCount()+g2.EdgeCount()) / 2
			}
			ops++
			got := &ems.Result{Names1: gr.Final.Names1, Names2: gr.Final.Names2, Sim: gr.Final.Sim, Mapping: mp,
				Evaluations: gr.Stats.Evaluations, Rounds: gr.Final.Rounds, Estimated: gr.Final.Estimated,
				ErrorBound: gr.Final.ErrorBound, Pruned: gr.Final.Pruned}
			for _, c := range gr.Merged1 {
				got.Composites1 = append(got.Composites1, c.Events)
			}
			for _, c := range gr.Merged2 {
				got.Composites2 = append(got.Composites2, c.Events)
			}
			if !reflect.DeepEqual(got, want) {
				chk.fail("pair %d: decomposed result differs from ems.MatchComposite", k)
			}
			n, err := checkProperties(want, pl1, pl2)
			if err != nil {
				chk.fail("pair %d: %v", k, err)
			}
			shared += float64(n)
		}
	}
	layerSum := mean(parse) + mean(discover) + mean(greedy) + mean(sel)
	if share := layerSum / mean(wall); math.Abs(share-1) > 0.05 {
		chk.fail("layer times sum to %.3f of the operation wall time", share)
	}
	chk.report()
	fo := float64(ops)
	return &result{
		Correct:   chk.ok(),
		Attempted: ops,
		Metrics: layerMetrics(map[string]float64{
			"eventlog.parse_ms":          mean(parse),
			"depgraph.edges":             edges / fo,
			"matching.select_ms":         mean(sel),
			"core.agreement_cache_ms":    mean(agree),
			"core.label_matrix_ms":       mean(labm),
			"label.calls_per_op":         calls / fo,
			"composite.discover_ms":      mean(discover),
			"composite.greedy_ms":        mean(greedy),
			"composite.candidates_tried": tried / fo,
			"composite.aborted_ratio":    aborted / tried,
			"composite.steps_accepted":   steps / fo,
			"composite.evals_per_op":     evals / fo,
			"composite.shared_events":    shared / fo,
			"trace.overhead_ms":          mean(wall) - mean(plain),
			"trace.layer_sum_share":      layerSum / mean(wall),
		}),
	}, nil
}
