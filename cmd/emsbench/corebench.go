package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/procgen"
)

// coreBenchReport is the machine-readable output of the core-engine scaling
// benchmark (`emsbench -json BENCH_core.json`). It freezes a perf
// trajectory point — serial versus N-worker wall time on a fixed synthetic
// pair — so later changes to the iteration engine can be regressed against
// it.
type coreBenchReport struct {
	Schema     string  `json:"schema"`
	Events     int     `json:"events"`
	Traces     int     `json:"traces"`
	Vertices1  int     `json:"vertices1"`
	Vertices2  int     `json:"vertices2"`
	Pairs      int     `json:"pairs"`
	Rounds     int     `json:"rounds"`
	Evals      int     `json:"evaluations"`
	Converged  bool    `json:"converged"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SerialMS   float64 `json:"serial_wall_ms"`
	// MemPredictedBytes is the cost model's predicted peak engine heap for
	// the exact serial configuration (core.EstimateCost) — the figure the
	// emsd resource governor admits against. Recorded next to the measured
	// peaks so drift between model and reality shows up in the trajectory.
	MemPredictedBytes int64 `json:"mem_predicted_bytes,omitempty"`

	Runs        []coreBenchRun     `json:"runs"`
	Convergence *convergenceReport `json:"convergence"`
	// FastPath is the trajectory point of the adaptive estimation-seeded
	// fast path (the ems-facade default) on the same pair, serial.
	FastPath *fastPathReport `json:"fastpath"`
}

// fastPathReport freezes the fast path's wall clock and accuracy on the
// benchmark pair, measured serially against the exact serial baseline of the
// same report.
type fastPathReport struct {
	SerialWallNS int64   `json:"serial_wall_ns"`
	SerialMS     float64 `json:"serial_wall_ms"`
	// SpeedupVsExact is the exact serial wall time divided by the fast
	// path's (both from this report, same binary and machine).
	SpeedupVsExact float64 `json:"speedup_vs_exact"`
	// Rounds is the exact rounds the adaptive cutover allowed before the
	// estimation pass took over.
	Rounds    int  `json:"rounds"`
	Evals     int  `json:"evaluations"`
	Estimated bool `json:"estimated"`
	// PrunedPairSkips counts the pair evaluations the Proposition-2 bounds
	// skipped. It may be zero: on the cyclic benchmark pair no pair has a
	// finite bound within the fast path's few exact rounds.
	PrunedPairSkips int `json:"pruned_pair_skips"`
	// ErrorBound is the certified a-posteriori per-pair bound of the run;
	// MaxAbsError is the observed worst error against the exact serial
	// matrix (always <= ErrorBound).
	ErrorBound  float64 `json:"error_bound"`
	MaxAbsError float64 `json:"max_abs_error"`
	Budget      float64 `json:"budget"`
	// PeakMemBytes mirrors coreBenchRun.PeakMemBytes for the fast path.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
}

// convergenceReport is the iteration telemetry of the benchmark pair,
// gathered from an instrumented (observer-armed) run that is excluded from
// the timings. It freezes the convergence trajectory — how many rounds the
// fixpoint takes, how the per-round delta decays, and what Proposition-2
// pruning saves — alongside the wall-clock numbers.
type convergenceReport struct {
	// Rounds to converge and the delta of the final round, against the
	// configured epsilon.
	Rounds     int     `json:"rounds"`
	FinalDelta float64 `json:"final_delta"`
	Epsilon    float64 `json:"epsilon"`
	// PerRoundDelta is the worst per-direction delta of each round, in
	// round order: the decay curve the Epsilon test watches.
	PerRoundDelta []float64 `json:"per_round_delta"`
	// PrunedPairSkips counts pair evaluations skipped by Proposition 2
	// across all rounds and directions.
	PrunedPairSkips int `json:"pruned_pair_skips"`
	// EvalsNoPruning is the evaluation count of a pruning-disabled run of
	// the same pair; EvalsSavedByPruning is the difference to the pruned
	// run (results are bit-identical either way).
	EvalsNoPruning      int `json:"evals_no_pruning"`
	EvalsSavedByPruning int `json:"evals_saved_by_pruning"`
}

// coreBenchRun is one measured worker configuration.
type coreBenchRun struct {
	Workers     int     `json:"workers"`
	WallNS      int64   `json:"wall_ns"`
	WallMS      float64 `json:"wall_ms"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	// Speedup is serial wall time divided by this run's wall time (1.0 for
	// the serial run itself). Worker counts beyond the machine's cores
	// cannot speed anything up; the field records what the hardware gave.
	Speedup float64 `json:"speedup"`
	// BitIdentical confirms the run reproduced the serial Sim matrix and
	// counters exactly — the engine's determinism contract, re-checked on
	// every benchmark emission.
	BitIdentical bool `json:"bit_identical"`
	// PeakMemBytes is the measured peak heap growth of one extra
	// (untimed) run of this configuration; 0 when -mem was off.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
}

// coreBenchSeed fixes the synthetic workload so trajectory points stay
// comparable across sessions.
const coreBenchSeed = 2014

// coreBenchPair generates the benchmark workload: two skewed playouts of
// one generated process specification, so the logs are heterogeneous views
// of the same behavior, built into artificial-event dependency graphs.
func coreBenchPair(events, traces int) (*depgraph.Graph, *depgraph.Graph, error) {
	rng := rand.New(rand.NewSource(coreBenchSeed))
	spec, err := procgen.Generate(rng, procgen.DefaultOptions(events))
	if err != nil {
		return nil, nil, err
	}
	po := procgen.PlayoutOptions{Traces: traces, LoopRepeat: 0.3, MaxLoop: 3, XorSkew: 2}
	l1, err := spec.Playout(rng, "bench1", po)
	if err != nil {
		return nil, nil, err
	}
	l2, err := spec.Playout(rng, "bench2", po)
	if err != nil {
		return nil, nil, err
	}
	build := func(l *eventlog.Log) (*depgraph.Graph, error) {
		g, err := depgraph.Build(l)
		if err != nil {
			return nil, err
		}
		return g.AddArtificial()
	}
	g1, err := build(l1)
	if err != nil {
		return nil, nil, err
	}
	g2, err := build(l2)
	if err != nil {
		return nil, nil, err
	}
	return g1, g2, nil
}

// measureCoreBench runs the benchmark measurements on the standard pair and
// assembles the report. Each configuration runs reps times and keeps the
// fastest wall time; N-worker runs are verified bit-identical against the
// serial baseline, the fast-path run against its certified error bound.
func measureCoreBench(events, traces, reps int, workerCounts []int, measureMem bool) (*coreBenchReport, error) {
	g1, g2, err := coreBenchPair(events, traces)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()

	measure := func(c core.Config) (*core.Result, time.Duration, error) {
		var best time.Duration
		var res *core.Result
		for r := 0; r < reps; r++ {
			start := time.Now()
			out, err := core.Compute(g1, g2, c)
			wall := time.Since(start)
			if err != nil {
				return nil, 0, err
			}
			if res == nil || wall < best {
				best = wall
				res = out
			}
		}
		return res, best, nil
	}
	// memOf runs one extra, untimed computation with a heap sampler armed,
	// so the memory column never perturbs the wall clocks.
	memOf := func(c core.Config) (int64, error) {
		if !measureMem {
			return 0, nil
		}
		return peakHeapDuring(func() error {
			_, err := core.Compute(g1, g2, c)
			return err
		})
	}
	atWorkers := func(workers int) core.Config {
		c := cfg
		c.Workers = workers
		return c
	}

	serial, serialWall, err := measure(atWorkers(1))
	if err != nil {
		return nil, err
	}
	report := &coreBenchReport{
		Schema:     "ems-core-bench/v2",
		Events:     events,
		Traces:     traces,
		Vertices1:  g1.N(),
		Vertices2:  g2.N(),
		Pairs:      g1.RealCount() * g2.RealCount(),
		Rounds:     serial.Rounds,
		Evals:      serial.Evaluations,
		Converged:  serial.Converged,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SerialMS:   durMS(serialWall),
	}
	if measureMem {
		report.MemPredictedBytes = core.EstimateCost(g1, g2, atWorkers(1)).Bytes
	}
	run := benchRun(1, serialWall, serialWall, serial, serial)
	if run.PeakMemBytes, err = memOf(atWorkers(1)); err != nil {
		return nil, err
	}
	report.Runs = append(report.Runs, run)
	for _, w := range workerCounts {
		if w <= 1 {
			continue
		}
		res, wall, err := measure(atWorkers(w))
		if err != nil {
			return nil, err
		}
		run := benchRun(w, wall, serialWall, serial, res)
		if run.PeakMemBytes, err = memOf(atWorkers(w)); err != nil {
			return nil, err
		}
		report.Runs = append(report.Runs, run)
	}
	conv, err := measureConvergence(g1, g2, cfg, serial)
	if err != nil {
		return nil, err
	}
	report.Convergence = conv

	fcfg := atWorkers(1)
	fcfg.FastPath = true
	fast, fastWall, err := measure(fcfg)
	if err != nil {
		return nil, err
	}
	var maxErr float64
	for i := range serial.Sim {
		if d := math.Abs(serial.Sim[i] - fast.Sim[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > fast.ErrorBound {
		return nil, fmt.Errorf("fast path violated its certified bound: max abs error %g > bound %g", maxErr, fast.ErrorBound)
	}
	fp := &fastPathReport{
		SerialWallNS:    fastWall.Nanoseconds(),
		SerialMS:        durMS(fastWall),
		Rounds:          fast.Rounds,
		Evals:           fast.Evaluations,
		Estimated:       fast.Estimated,
		PrunedPairSkips: fast.Pruned,
		ErrorBound:      fast.ErrorBound,
		MaxAbsError:     maxErr,
		Budget:          core.DefaultFastPathBudget,
	}
	if fastWall > 0 {
		fp.SpeedupVsExact = float64(serialWall) / float64(fastWall)
	}
	if fp.PeakMemBytes, err = memOf(fcfg); err != nil {
		return nil, err
	}
	report.FastPath = fp
	return report, nil
}

// peakHeapDuring runs fn with a 1ms heap sampler armed and returns the peak
// heap growth over the pre-run (post-GC) baseline. The sampler reads
// runtime.MemStats, so the measured run must never be the timed one.
func peakHeapDuring(fn func() error) (int64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := int64(ms.HeapAlloc)
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if d := int64(m.HeapAlloc) - base; d > peak.Load() {
					peak.Store(d)
				}
			}
		}
	}()
	err := fn()
	// One final sample before anything is garbage-collected: short runs may
	// finish between ticks.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if d := int64(m.HeapAlloc) - base; d > peak.Load() {
		peak.Store(d)
	}
	close(stop)
	<-done
	if err != nil {
		return 0, err
	}
	return peak.Load(), nil
}

// printCoreBench renders the human-readable summary of a report.
func printCoreBench(report *coreBenchReport) {
	fmt.Printf("core bench: %d events, %d pairs, %d rounds, %d evaluations (GOMAXPROCS=%d)\n",
		report.Events, report.Pairs, report.Rounds, report.Evals, report.GOMAXPROCS)
	for _, r := range report.Runs {
		mem := ""
		if r.PeakMemBytes > 0 {
			mem = fmt.Sprintf("  mem=%7.2fMiB", float64(r.PeakMemBytes)/(1<<20))
		}
		fmt.Printf("  workers=%d  wall=%8.2fms  evals/s=%12.0f  speedup=%.2fx  bit_identical=%v%s\n",
			r.Workers, r.WallMS, r.EvalsPerSec, r.Speedup, r.BitIdentical, mem)
	}
	if report.MemPredictedBytes > 0 {
		fmt.Printf("cost model:  predicted peak %.2fMiB for exact serial\n",
			float64(report.MemPredictedBytes)/(1<<20))
	}
	if conv := report.Convergence; conv != nil {
		fmt.Printf("convergence: %d rounds to delta=%.2e (eps=%.0e); pruning skipped %d pair-rounds, saving %d of %d evals\n",
			conv.Rounds, conv.FinalDelta, conv.Epsilon, conv.PrunedPairSkips,
			conv.EvalsSavedByPruning, conv.EvalsNoPruning)
	}
	if fp := report.FastPath; fp != nil {
		fmt.Printf("fast path:   wall=%8.2fms  speedup=%.2fx vs exact serial  rounds=%d  pruned_pair_skips=%d\n",
			fp.SerialMS, fp.SpeedupVsExact, fp.Rounds, fp.PrunedPairSkips)
		fmt.Printf("             certified bound=%.4f  observed max error=%.4f  (budget %.2g)\n",
			fp.ErrorBound, fp.MaxAbsError, fp.Budget)
	}
}

// runCoreBench measures the benchmark pair and writes the JSON report to
// path.
func runCoreBench(path string, events, traces, reps int, workerCounts []int, measureMem bool) error {
	report, err := measureCoreBench(events, traces, reps, workerCounts, measureMem)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	printCoreBench(report)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// regressTolerance is the wall-clock slack `emsbench -regress` allows over a
// committed trajectory point before declaring a regression.
const regressTolerance = 1.25

// runCoreRegress re-measures the benchmark pair and fails (non-nil error)
// when wall clocks regressed more than regressTolerance against the
// committed report at path, comparing exact serial and fast-path serial
// separately. Counters that must not rot (pruned skips, the certified bound
// discipline) are re-checked by measureCoreBench itself.
func runCoreRegress(path string, reps int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed coreBenchReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if committed.FastPath == nil {
		return fmt.Errorf("%s has no fastpath section (schema %s); regenerate with -json", path, committed.Schema)
	}
	report, err := measureCoreBench(committed.Events, committed.Traces, reps, nil, false)
	if err != nil {
		return err
	}
	printCoreBench(report)
	fail := false
	check := func(name string, now, was float64) {
		limit := was * regressTolerance
		verdict := "ok"
		if now > limit {
			verdict = "REGRESSED"
			fail = true
		}
		fmt.Printf("regress %-12s now=%8.2fms  committed=%8.2fms  limit=%8.2fms  %s\n",
			name, now, was, limit, verdict)
	}
	check("exact-serial", report.SerialMS, committed.SerialMS)
	check("fast-serial", report.FastPath.SerialMS, committed.FastPath.SerialMS)
	if fail {
		return fmt.Errorf("wall clock regressed more than %.0f%% against %s", (regressTolerance-1)*100, path)
	}
	return nil
}

// measureConvergence reruns the pair serially with the engine's round
// observer armed (pruned), then once with pruning disabled, and reconciles
// both against the timed serial result.
func measureConvergence(g1, g2 *depgraph.Graph, cfg core.Config, serial *core.Result) (*convergenceReport, error) {
	c := cfg
	c.Workers = 1
	conv := &convergenceReport{Epsilon: c.Epsilon}
	c.OnRound = func(ob *core.RoundBoundary) {
		delta := 0.0
		pruned := 0
		for _, d := range ob.Dirs {
			// Only directions that stepped this round contribute to its
			// delta; a converged engine keeps reporting its final state.
			if d.Round == ob.Round {
				if d.Delta > delta {
					delta = d.Delta
				}
			}
			pruned += d.TotalPruned
		}
		conv.PerRoundDelta = append(conv.PerRoundDelta, delta)
		conv.FinalDelta = delta
		conv.PrunedPairSkips = pruned
	}
	observed, err := core.Compute(g1, g2, c)
	if err != nil {
		return nil, err
	}
	if observed.Rounds != serial.Rounds || observed.Evaluations != serial.Evaluations {
		return nil, fmt.Errorf("observer changed the run: %d rounds / %d evals vs %d / %d",
			observed.Rounds, observed.Evaluations, serial.Rounds, serial.Evaluations)
	}
	conv.Rounds = observed.Rounds
	noPrune := cfg
	noPrune.Workers = 1
	noPrune.Prune = false
	unpruned, err := core.Compute(g1, g2, noPrune)
	if err != nil {
		return nil, err
	}
	conv.EvalsNoPruning = unpruned.Evaluations
	conv.EvalsSavedByPruning = unpruned.Evaluations - serial.Evaluations
	return conv, nil
}

// benchRun assembles one run record, checking the result against the serial
// baseline bit for bit.
func benchRun(workers int, wall, serialWall time.Duration, serial, res *core.Result) coreBenchRun {
	identical := serial.Evaluations == res.Evaluations &&
		serial.Rounds == res.Rounds &&
		serial.Converged == res.Converged &&
		len(serial.Sim) == len(res.Sim)
	if identical {
		for i := range serial.Sim {
			if serial.Sim[i] != res.Sim[i] {
				identical = false
				break
			}
		}
	}
	var eps float64
	if secs := wall.Seconds(); secs > 0 {
		eps = float64(res.Evaluations) / secs
	}
	var speedup float64
	if wall > 0 {
		speedup = float64(serialWall) / float64(wall)
	}
	return coreBenchRun{
		Workers:      workers,
		WallNS:       wall.Nanoseconds(),
		WallMS:       durMS(wall),
		EvalsPerSec:  eps,
		Speedup:      speedup,
		BitIdentical: identical,
	}
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
