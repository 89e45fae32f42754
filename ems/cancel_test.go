package ems_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/ems"
	"repro/internal/failpoint"
)

// TestWithContextCancelMidComputation: cancelling the context while the
// engine is inside an iteration round aborts the match within one round and
// surfaces ErrStopped wrapping context.Canceled.
func TestWithContextCancelMidComputation(t *testing.T) {
	l1, l2 := paperLogs()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		once.Do(func() {
			close(started)
			<-release
		})
		return failpoint.Fault{}
	})
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ems.Match(l1, l2, ems.WithContext(ctx))
		done <- err
	}()
	<-started // a round is in flight
	cancel()
	close(release)
	err := <-done
	if !errors.Is(err, ems.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestWithTimeoutExpires: a deadline shorter than the computation aborts it
// with ErrStopped wrapping context.DeadlineExceeded.
func TestWithTimeoutExpires(t *testing.T) {
	l1, l2 := paperLogs()
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		// Model a slow round so the 1ms budget is certainly exceeded by the
		// time the round's stop check runs.
		return failpoint.Fault{Delay: 20 * time.Millisecond}
	})
	defer restore()
	_, err := ems.Match(l1, l2, ems.WithTimeout(time.Millisecond))
	if !errors.Is(err, ems.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestWithTimeoutBenign: an ample deadline changes nothing — same numbers,
// no error.
func TestWithTimeoutBenign(t *testing.T) {
	l1, l2 := paperLogs()
	plain, err := ems.Match(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := ems.Match(l1, l2, ems.WithTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Sim {
		if plain.Sim[i] != timed.Sim[i] {
			t.Fatalf("timeout-armed result differs at %d", i)
		}
	}
}

// TestCancelOptionValidation: nil contexts and non-positive timeouts are
// rejected at option-build time.
func TestCancelOptionValidation(t *testing.T) {
	l1, l2 := paperLogs()
	if _, err := ems.Match(l1, l2, ems.WithContext(nil)); err == nil {
		t.Errorf("nil context accepted")
	}
	if _, err := ems.Match(l1, l2, ems.WithTimeout(0)); err == nil {
		t.Errorf("zero timeout accepted")
	}
	if _, err := ems.Match(l1, l2, ems.WithTimeout(-time.Second)); err == nil {
		t.Errorf("negative timeout accepted")
	}
}

// TestMatchCompositeHonorsContext: the greedy composite search also aborts
// on cancellation (between candidates and inside candidate computations).
func TestMatchCompositeHonorsContext(t *testing.T) {
	l1, l2 := paperLogs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ems.MatchComposite(l1, l2, ems.WithContext(ctx))
	if !errors.Is(err, ems.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestMatchAllContextCancelMidPair: cancelling the batch context aborts the
// pair that is currently computing, not just the unstarted ones.
func TestMatchAllContextCancelMidPair(t *testing.T) {
	l1, l2 := paperLogs()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		once.Do(func() {
			close(started)
			<-release
		})
		return failpoint.Fault{}
	})
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs := make(chan []ems.PairOutput, 1)
	go func() {
		outs <- ems.MatchAllContext(ctx, []ems.PairInput{{Name: "slow", Log1: l1, Log2: l2}}, 1, false)
	}()
	<-started
	cancel()
	close(release)
	got := <-outs
	if got[0].Result != nil {
		t.Fatalf("cancelled pair produced a result")
	}
	if !errors.Is(got[0].Err, ems.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", got[0].Err)
	}
}

// TestMatchAllPanicContained: a panic while matching one pair becomes that
// pair's error; later pairs of the same batch still match normally.
func TestMatchAllPanicContained(t *testing.T) {
	l1, l2 := paperLogs()
	var tripped atomic.Bool
	restore := failpoint.Set(failpoint.EngineRound, func(any) failpoint.Fault {
		if tripped.CompareAndSwap(false, true) {
			panic("injected batch panic")
		}
		return failpoint.Fault{}
	})
	defer restore()
	pairs := []ems.PairInput{
		{Name: "boom", Log1: l1, Log2: l2},
		{Name: "fine", Log1: l1, Log2: l1},
	}
	// One worker runs the pairs in order: the first trips the failpoint, the
	// second must be unaffected.
	outs := ems.MatchAll(pairs, 1, false)
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "panicked") {
		t.Fatalf("boom pair err = %v, want contained panic", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Fatalf("fine pair err = %v", outs[1].Err)
	}
	if outs[1].Result == nil || len(outs[1].Result.Mapping) == 0 {
		t.Fatalf("fine pair has no result")
	}
}
