package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/failpoint"
)

// TestStopHookAbortsCompute: a hook that trips mid-computation aborts the
// run with an error wrapping both ErrStopped and the hook's cause.
func TestStopHookAbortsCompute(t *testing.T) {
	g1, g2 := procgenGraphs(t, 3, 15, 50)
	cause := errors.New("test cause")
	var calls atomic.Int64
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Stop = func() error {
		if calls.Add(1) > 3 {
			return cause
		}
		return nil
	}
	res, err := Compute(g1, g2, cfg)
	if res != nil {
		t.Fatalf("aborted Compute returned a result")
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v does not wrap the hook's cause", err)
	}
	var se *StopError
	if !errors.As(err, &se) || se.Cause != cause {
		t.Fatalf("err = %v is not a *StopError carrying the cause", err)
	}
}

// TestStopHookAlreadyCancelled: a hook that trips immediately aborts even
// before the first iteration round (during setup), and a context hook wires
// up naturally via ctx.Err.
func TestStopHookAlreadyCancelled(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.Stop = ctx.Err
	if _, err := Compute(g1, g2, cfg); !errors.Is(err, ErrStopped) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrStopped wrapping context.Canceled", err)
	}
}

// TestStopErrorLatched: after the first abort, every later use of the
// computation returns the same stop error without consulting the hook again.
func TestStopErrorLatched(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	cause := errors.New("latched cause")
	tripped := atomic.Bool{}
	cfg := DefaultConfig()
	cfg.Stop = func() error {
		if tripped.Load() {
			return cause
		}
		return nil
	}
	comp, err := NewComputation(g1, g2, cfg, nil)
	if err != nil {
		t.Fatalf("NewComputation: %v", err)
	}
	if _, err := comp.Step(); err != nil {
		t.Fatalf("pre-trip Step: %v", err)
	}
	tripped.Store(true)
	if _, err := comp.Step(); !errors.Is(err, cause) {
		t.Fatalf("post-trip Step err = %v, want cause", err)
	}
	// The hook is never consulted again: even if it would now return nil,
	// the latched error persists.
	tripped.Store(false)
	if _, err := comp.Step(); !errors.Is(err, cause) {
		t.Fatalf("latched Step err = %v, want original cause", err)
	}
	if _, err := comp.Result(); !errors.Is(err, cause) {
		t.Fatalf("latched Result err = %v, want original cause", err)
	}
}

// TestStopHookBenignBitIdentical: a hook that never trips must not perturb
// the numbers at any worker count — the uncancelled path stays bit-identical
// to the hook-free engine.
func TestStopHookBenignBitIdentical(t *testing.T) {
	g1, g2 := procgenGraphs(t, 9, 16, 50)
	baseCfg := DefaultConfig()
	baseCfg.Workers = 1
	want, err := Compute(g1, g2, baseCfg)
	if err != nil {
		t.Fatalf("baseline Compute: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Stop = func() error { return nil }
		got, err := Compute(g1, g2, cfg)
		if err != nil {
			t.Fatalf("hooked Compute workers=%d: %v", workers, err)
		}
		requireBitIdentical(t, want, got, "benign stop hook")
	}
}

// TestGoldenWithStopHook: the Example 8 numbers survive an installed (but
// never-tripping) cancellation hook bit-for-bit.
func TestGoldenWithStopHook(t *testing.T) {
	g1, g2 := exampleGraphs(t)
	plain, err := Compute(g1, g2, DefaultConfig())
	if err != nil {
		t.Fatalf("plain Compute: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Stop = context.Background().Err
	hooked, err := Compute(g1, g2, cfg)
	if err != nil {
		t.Fatalf("hooked Compute: %v", err)
	}
	requireBitIdentical(t, plain, hooked, "example8 stop hook")
}

// TestFailpointPanicPropagates: a panic injected mid-round inside the engine
// reaches the caller's goroutine as an *EnginePanic (not a process crash),
// with the originating stack attached — the contract emsd's panic
// containment builds on.
func TestFailpointPanicPropagates(t *testing.T) {
	g1, g2 := procgenGraphs(t, 5, 15, 50)
	restore := failpoint.Set(failpoint.EngineRound, func(arg any) failpoint.Fault {
		if arg.(int) == 2 {
			panic("injected failure")
		}
		return failpoint.Fault{}
	})
	defer restore()
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected a panic", workers)
				}
				ep, ok := r.(*EnginePanic)
				if !ok {
					t.Fatalf("workers=%d: panic value %T, want *EnginePanic", workers, r)
				}
				if ep.Val != "injected failure" {
					t.Fatalf("workers=%d: panic value %v", workers, ep.Val)
				}
				if len(ep.Stack) == 0 {
					t.Fatalf("workers=%d: EnginePanic without a stack", workers)
				}
			}()
			cfg := DefaultConfig()
			cfg.Workers = workers
			_, _ = Compute(g1, g2, cfg)
		}()
	}
}

// TestWorkerPanicPropagates: a panic raised inside a pool worker goroutine
// (not the coordinating one) is handed back to the caller too. The label
// hook runs inside worker chunks, making it a convenient injection point.
func TestWorkerPanicPropagates(t *testing.T) {
	g1, g2 := procgenGraphs(t, 13, 16, 50)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Alpha = 0.5
	cfg.Labels = func(a, b string) float64 { panic("label hook exploded") }
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic from the worker goroutine")
		}
		if _, ok := r.(*EnginePanic); !ok {
			t.Fatalf("panic value %T, want *EnginePanic", r)
		}
	}()
	_, _ = Compute(g1, g2, cfg)
}
