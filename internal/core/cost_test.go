package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/depgraph"
	"repro/internal/procgen"
)

// costTestPair builds a procgen workload pair like the emsbench harness
// does: two skewed playouts of one generated specification, as
// artificial-event dependency graphs.
func costTestPair(t *testing.T, events, traces int) (*depgraph.Graph, *depgraph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(2014))
	spec, err := procgen.Generate(rng, procgen.DefaultOptions(events))
	if err != nil {
		t.Fatalf("procgen: %v", err)
	}
	po := procgen.PlayoutOptions{Traces: traces, LoopRepeat: 0.3, MaxLoop: 3, XorSkew: 2}
	l1, err := spec.Playout(rng, "cost1", po)
	if err != nil {
		t.Fatalf("playout: %v", err)
	}
	l2, err := spec.Playout(rng, "cost2", po)
	if err != nil {
		t.Fatalf("playout: %v", err)
	}
	g1, err := depgraph.Build(l1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g1, err = g1.AddArtificial(); err != nil {
		t.Fatalf("artificial: %v", err)
	}
	g2, err := depgraph.Build(l2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if g2, err = g2.AddArtificial(); err != nil {
		t.Fatalf("artificial: %v", err)
	}
	return g1, g2
}

// measuredPeakHeap runs fn with a 1ms heap sampler armed and returns the
// peak HeapAlloc growth over the post-GC baseline — the emsbench -mem
// measurement, inlined here so the model test needs no harness import.
func measuredPeakHeap(t *testing.T, fn func() error) int64 {
	t.Helper()
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
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if d := int64(m.HeapAlloc) - base; d > peak.Load() {
		peak.Store(d)
	}
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("compute under measurement: %v", err)
	}
	return peak.Load()
}

// TestEstimateCostTracksMeasuredPeak is the accuracy contract of the
// resource governor's cost model: across a procgen size sweep and worker
// counts 1/2/8, the predicted peak engine heap stays within a factor of two of the measured high-water mark. Tighter would fight the
// allocator (size classes, GC timing); looser would make -mem-budget
// admission decisions meaningless. The sweep covers both kernels: the
// sparse size runs the classic one, the two denser sizes the factored one.
func TestEstimateCostTracksMeasuredPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("memory sweep is slow; skipped with -short")
	}
	sizes := []struct {
		events, traces int
		factored       bool
	}{
		{64, 80, false},
		{120, 140, true},
		{80, 100, true},
	}
	for _, size := range sizes {
		g1, g2 := costTestPair(t, size.events, size.traces)
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers

			est := EstimateCost(g1, g2, cfg)
			if est.Bytes <= 0 || est.Evals <= 0 {
				t.Fatalf("events=%d workers=%d: empty estimate %+v",
					size.events, workers, est)
			}
			var kernels []kernel
			measured := measuredPeakHeap(t, func() error {
				c, err := NewComputation(g1, g2, cfg, nil)
				if err != nil {
					return err
				}
				if err := c.Run(); err != nil {
					return err
				}
				for _, e := range c.engines() {
					kernels = append(kernels, e.kernel)
				}
				_, err = c.Result()
				return err
			})
			for _, k := range kernels {
				if (k == kernelFactored) != size.factored {
					t.Fatalf("events=%d: engine ran kernel %d, want factored = %v", size.events, k, size.factored)
				}
			}
			if measured <= 0 {
				t.Fatalf("events=%d workers=%d: sampler measured nothing",
					size.events, workers)
			}
			ratio := float64(est.Bytes) / float64(measured)
			t.Logf("events=%-4d traces=%-4d workers=%d predicted=%8.2fKiB measured=%8.2fKiB ratio=%.2f",
				size.events, size.traces, workers,
				float64(est.Bytes)/1024, float64(measured)/1024, ratio)
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("events=%d traces=%d workers=%d: predicted %d bytes vs measured %d (ratio %.2f, want within 2x)",
					size.events, size.traces, workers, est.Bytes, measured, ratio)
			}
		}
	}
}

// TestEstimateCostMonotonicity pins cheap structural properties the governor
// relies on: cost grows with the workload, Both covers two directions, and
// the estimate itself never allocates matrix-scale memory.
func TestEstimateCostMonotonicity(t *testing.T) {
	small1, small2 := costTestPair(t, 24, 30)
	big1, big2 := costTestPair(t, 96, 90)
	cfg := DefaultConfig()

	smallEst := EstimateCost(small1, small2, cfg)
	bigEst := EstimateCost(big1, big2, cfg)
	if bigEst.Bytes <= smallEst.Bytes {
		t.Errorf("bigger pair predicted cheaper: %d <= %d bytes", bigEst.Bytes, smallEst.Bytes)
	}
	if bigEst.Evals <= smallEst.Evals {
		t.Errorf("bigger pair predicted fewer evals: %d <= %d", bigEst.Evals, smallEst.Evals)
	}
	if len(smallEst.Directions) != 2 {
		t.Errorf("Both direction produced %d per-direction entries, want 2", len(smallEst.Directions))
	}
	var sum int64
	for _, d := range smallEst.Directions {
		if d.Total() <= 0 {
			t.Errorf("direction cost %+v is not positive", d)
		}
		sum += d.Total()
	}
	if sum != smallEst.Bytes {
		t.Errorf("direction totals sum to %d, Bytes says %d", sum, smallEst.Bytes)
	}

	// The estimator must be cheap: estimating a large pair should allocate
	// orders of magnitude less than the matrices it predicts.
	estAlloc := testing.AllocsPerRun(3, func() {
		EstimateCost(big1, big2, cfg)
	})
	if estAlloc > 1000 {
		t.Errorf("EstimateCost performed %.0f allocations, want a cheap estimate", estAlloc)
	}
}

// TestLabelMatrixBuiltOnce: the label matrix is a property of the two name
// lists, which Graph.Reverse keeps in order, so a Direction Both computation
// calls the label similarity exactly once per real event pair — not once per
// direction — and the cost model counts the matrix once.
func TestLabelMatrixBuiltOnce(t *testing.T) {
	g1, g2 := procgenGraphs(t, 3, 12, 40)
	for _, dir := range []Direction{Forward, Backward, Both} {
		var calls atomic.Int64
		cfg := DefaultConfig()
		cfg.Direction = dir
		cfg.Alpha = 0.7
		cfg.Workers = 4
		cfg.Labels = func(a, b string) float64 {
			calls.Add(1)
			return testLabelSim(a, b)
		}
		if _, err := Compute(g1, g2, cfg); err != nil {
			t.Fatal(err)
		}
		if want := int64(g1.RealCount() * g2.RealCount()); calls.Load() != want {
			t.Errorf("%v: %d label calls, want n1*n2 = %d", dir, calls.Load(), want)
		}
	}
	cfg := DefaultConfig()
	both := EstimateCost(g1, g2, cfg)
	cfg.Direction = Forward
	fwd := EstimateCost(g1, g2, cfg)
	labBytes := 8 * int64(g1.N()) * int64(g2.N())
	if both.Directions[1].MatrixBytes != fwd.Directions[0].MatrixBytes-labBytes {
		t.Errorf("backward direction matrix bytes %d, want the forward's %d minus the shared %d-byte label matrix",
			both.Directions[1].MatrixBytes, fwd.Directions[0].MatrixBytes, labBytes)
	}
}
