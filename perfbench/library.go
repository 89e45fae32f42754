package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/ems"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// libWorkload describes a library workload: how its pairs are made, the
// call it times, and how a result is checked.
type libWorkload struct {
	opts       func(k int) dataset.Options
	models     int
	warm       []int64
	baseRounds int
	match      func(l1, l2 *ems.Log) (*ems.Result, error)
	// check verifies one distinct pair's result against the reference and
	// returns the certified error bound of that result.
	check func(in input, res *ems.Result, l1, l2 *ems.Log) (float64, error)
	trace func(cfg runConfig, timed []input) (*result, error)
	// sharesEvents tolerates an event in two correspondences, which
	// composite matching produces (see checkProperties); the traced run
	// counts them.
	sharesEvents bool
}

// runLibrary runs a library workload: inputs, set-up, then whole rounds
// over the timed inputs with one caller. Results are checked after the
// timed phase: the first result of every pair in full, every later one by
// bit-identity with the first.
func runLibrary(cfg runConfig, w libWorkload) (*result, error) {
	ph := newPhases()
	var timed, warm []input
	for k := 0; k < w.models+len(w.warm); k++ {
		model := int64(1 + k)
		if k >= w.models {
			model = w.warm[k-w.models]
		}
		p, _, err := makePair(model, cfg.seed, k, w.opts(k))
		if err != nil {
			return nil, err
		}
		in, err := pairInput(p)
		if err != nil {
			return nil, err
		}
		if k < w.models {
			timed = append(timed, in)
		} else {
			warm = append(warm, in)
		}
	}
	ph.done("inputs")
	setup, err := librarySetup(warm, w.match)
	if err != nil {
		return nil, err
	}
	ph.done("set-up")
	if cfg.trace {
		return w.trace(cfg, timed)
	}
	chk := &checker{}
	firstRes := make([]*ems.Result, len(timed))
	firstDigest := make([]uint64, len(timed))
	failed := 0
	n := rounds(cfg, w.baseRounds)
	m := startMeter()
	for r := 0; r < n; r++ {
		for k, in := range timed {
			start := time.Now()
			l1, l2, err := readPair(in)
			var res *ems.Result
			if err == nil {
				res, err = w.match(l1, l2)
			}
			lat := time.Since(start)
			if err != nil {
				failed++
				chk.fail("pair %d: %v", k, err)
				continue
			}
			m.latencies = append(m.latencies, ms(lat))
			d := digest(res)
			if firstRes[k] == nil {
				firstRes[k], firstDigest[k] = res, d
			} else if d != firstDigest[k] {
				chk.fail("pair %d: round %d result differs from the first", k, r)
			}
		}
		m.sampleRetained()
	}
	m.stop()
	ph.done("timed phase")
	// The checks run two at a time (the machine has two CPUs); none of it
	// is timed.
	fm := make([]float64, len(timed))
	bounds := make([]float64, len(timed))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k, res := range firstRes {
		if res == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, res *ems.Result) {
			defer wg.Done()
			defer func() { <-sem }()
			l1, l2, err := readPair(timed[k])
			if err != nil {
				chk.fail("pair %d: %v", k, err)
				return
			}
			if shared, err := checkProperties(res, l1, l2); err != nil {
				chk.fail("pair %d: %v", k, err)
			} else if shared > 0 && !w.sharesEvents {
				chk.fail("pair %d: %d events mapped twice", k, shared)
			}
			if bounds[k], err = w.check(timed[k], res, l1, l2); err != nil {
				chk.fail("pair %d: %v", k, err)
			}
			fm[k] = ems.Evaluate(res.Mapping, timed[k].truth).FMeasure
		}(k, res)
	}
	wg.Wait()
	ph.done("checks")
	chk.report()
	return &result{
		Correct:   chk.ok(),
		Attempted: n * len(timed),
		Failed:    failed,
		Metrics:   m.endToEnd(setup, mean(fm), median(bounds)),
	}, nil
}

// librarySetup times the program's set-up before the first timed
// operation: one warm-up pass over inputs distinct from the timed ones. It
// is repeated and the caller reports the median.
func librarySetup(warm []input, match func(l1, l2 *ems.Log) (*ems.Result, error)) ([]time.Duration, error) {
	var out []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		for _, in := range warm {
			l1, l2, err := readPair(in)
			if err != nil {
				return nil, err
			}
			if _, err := match(l1, l2); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// digest fingerprints a result bit for bit: names, similarities, mapping.
func digest(r *ems.Result) uint64 {
	h := fnv.New64a()
	for _, n := range r.Names1 {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	h.Write([]byte{1})
	for _, n := range r.Names2 {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	var b [8]byte
	for _, v := range r.Sim {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	fmt.Fprint(h, r.Mapping, r.Composites1, r.Composites2)
	return h.Sum64()
}

// spanTotals sums the durations of a trace's spans by name.
func spanTotals(tr *obs.Trace) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range tr.Snapshot() {
		out[s.Name] += s.DurationMS
	}
	return out
}
