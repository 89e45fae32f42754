package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/ems"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/matching"
	"repro/internal/obs"
)

// match-large: one caller runs ems.Match from CSV bytes with library
// defaults (opaque names, alpha = 1, fast path, tiled layout) over clean
// pairs of 200 activities with dislocation and frequency skew. Engine
// iteration, cutover and certification dominate.
var largeOpts = dataset.Options{
	Events: 200, Traces: 40, OpaqueFraction: 1, FrequencySkew: 0.5, ExtraFront: 1, ExtraBack: 1,
}

const (
	largeModels = 21 // distinct pairs per round
	largeRounds = 5
)

// largeWarmModels are the model seeds of the warm-up pairs, distinct from
// the timed ones (1..largeModels).
var largeWarmModels = []int64{101, 102, 103}

func runLarge(cfg runConfig) (*result, error) {
	w := libWorkload{
		opts:       func(int) dataset.Options { return largeOpts },
		models:     largeModels,
		warm:       largeWarmModels,
		baseRounds: largeRounds,
		match:      func(l1, l2 *ems.Log) (*ems.Result, error) { return ems.Match(l1, l2) },
		check:      checkLarge,
		trace:      traceLarge,
	}
	if cfg.toy {
		w.opts = func(int) dataset.Options {
			o := largeOpts
			o.Events, o.Traces = 30, 30
			return o
		}
		w.models, w.warm = 2, w.warm[:1]
	}
	return runLibrary(cfg, w)
}

// checkLarge checks a match-large result against the reference: no entry
// may be further from it than the result's own certificate, plus the
// engine's and the reference's stopping tolerances. It returns the
// certified bound the run reports.
func checkLarge(in input, res *ems.Result, l1, l2 *ems.Log) (float64, error) {
	g1, g2, err := refGraphs(l1, l2)
	if err != nil {
		return 0, err
	}
	ref, err := refSimilarity(g1, g2, refConfig{alpha: 1, c: 0.8})
	if err != nil {
		return 0, err
	}
	dev, err := maxDeviation(res, ref)
	if err != nil {
		return 0, err
	}
	if allowed := res.ErrorBound + engineTolerance(1) + ref.tol; dev > allowed {
		return 0, fmt.Errorf("max |Sim - reference| = %.3g exceeds the certified %.3g", dev, allowed)
	}
	return res.ErrorBound, nil
}

// engineConfig is the core configuration ems.Match uses by default.
func engineConfig() core.Config {
	c := core.DefaultConfig()
	c.FastPath = true
	c.Tiled = true
	return c
}

// traceLarge is the traced run of match-large: every operation is
// decomposed into the public calls of the layers ems.Match is built from,
// timed from outside, and its output compared bit for bit with ems.Match on
// the same input, which is timed too so the difference is the tracing
// overhead.
func traceLarge(cfg runConfig, timed []input) (*result, error) {
	chk := &checker{}
	var parse, build, setup, run, sel, wall, plain, agree, labm []float64
	var rounds_, evals, pruned, edges, observed, maxBound float64
	n := rounds(cfg, largeRounds)
	ops := 0
	for r := 0; r < n; r++ {
		for k, in := range timed {
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
			g1, g2, err := refGraphs(l1, l2)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			ecfg := engineConfig()
			tr := obs.NewTrace("")
			ecfg.Span = tr.Span
			c, err := core.NewComputation(g1, g2, ecfg, nil)
			if err != nil {
				return nil, err
			}
			t3 := time.Now()
			if err := c.Run(); err != nil {
				return nil, err
			}
			cr, err := c.Result()
			if err != nil {
				return nil, err
			}
			t4 := time.Now()
			mp, err := matching.SelectWith(matching.MaxTotal, cr.Names1, cr.Names2, cr.Sim, 0.1, composite.SplitName)
			if err != nil {
				return nil, err
			}
			t5 := time.Now()

			p0 := time.Now()
			pl1, pl2, err := readPair(in)
			if err != nil {
				return nil, err
			}
			want, err := ems.Match(pl1, pl2)
			if err != nil {
				return nil, err
			}
			plain = append(plain, ms(time.Since(p0)))

			parse = append(parse, ms(t1.Sub(t0)))
			build = append(build, ms(t2.Sub(t1)))
			setup = append(setup, ms(t3.Sub(t2)))
			run = append(run, ms(t4.Sub(t3)))
			sel = append(sel, ms(t5.Sub(t4)))
			wall = append(wall, ms(t5.Sub(t0)))
			spans := spanTotals(tr)
			agree = append(agree, spans["agreement-cache"])
			labm = append(labm, spans["label-matrix"])
			maxBound = math.Max(maxBound, cr.ErrorBound)
			rounds_ += float64(cr.Rounds)
			evals += float64(cr.Evaluations)
			pruned += float64(cr.Pruned)
			edges += float64(g1.EdgeCount()+g2.EdgeCount()) / 2
			ops++
			got := &ems.Result{Names1: cr.Names1, Names2: cr.Names2, Sim: cr.Sim, Mapping: mp,
				Evaluations: cr.Evaluations, Rounds: cr.Rounds, Estimated: cr.Estimated,
				ErrorBound: cr.ErrorBound, Pruned: cr.Pruned}
			if !reflect.DeepEqual(got, want) {
				chk.fail("pair %d: decomposed result differs from ems.Match", k)
			}
			if r == 0 {
				ref, err := refSimilarity(g1, g2, refConfig{alpha: 1, c: 0.8})
				if err != nil {
					return nil, err
				}
				dev, err := maxDeviation(want, ref)
				if err != nil {
					return nil, err
				}
				observed = math.Max(observed, dev)
			}
		}
	}
	layerSum := mean(parse) + mean(build) + mean(setup) + mean(run) + mean(sel)
	if share := layerSum / mean(wall); math.Abs(share-1) > 0.05 {
		chk.fail("layer times sum to %.3f of the operation wall time", share)
	}
	chk.report()
	fo := float64(ops)
	return &result{
		Correct:   chk.ok(),
		Attempted: ops,
		Metrics: layerMetrics(map[string]float64{
			"eventlog.parse_ms":       mean(parse),
			"depgraph.build_ms":       mean(build),
			"depgraph.edges":          edges / fo,
			"matching.select_ms":      mean(sel),
			"core.setup_ms":           mean(setup),
			"core.run_ms":             mean(run),
			"core.agreement_cache_ms": mean(agree),
			"core.label_matrix_ms":    mean(labm),
			"core.rounds":             rounds_ / fo,
			"core.evals_per_op":       evals / fo,
			"core.pruned_ratio":       pruned / (evals + pruned),
			"core.max_observed_error": observed,
			"core.max_error_bound":    maxBound,
			"trace.overhead_ms":       mean(wall) - mean(plain),
			"trace.layer_sum_share":   layerSum / mean(wall),
		}),
	}, nil
}
