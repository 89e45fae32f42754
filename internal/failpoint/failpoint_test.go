package failpoint

import (
	"errors"
	"sync"
	"testing"
)

// TestSetRestoreNests pins the registry contract every layer relies on:
// an unarmed point injects nothing, restore reinstates the hook that was
// installed before (so a test can shadow a chaos schedule and re-arm it),
// and points are independent of each other.
func TestSetRestoreNests(t *testing.T) {
	if f := Fire(JournalSync, nil); f.Err != nil || f.Delay != 0 {
		t.Fatalf("unarmed point injected %+v", f)
	}
	outer, inner := errors.New("outer"), errors.New("inner")
	restoreOuter := Set(JournalSync, func(any) Fault { return Fault{Err: outer} })
	restoreInner := Set(JournalSync, func(any) Fault { return Fault{Err: inner} })
	if got := Fire(JournalSync, nil).Err; got != inner {
		t.Fatalf("shadowing hook: got %v, want inner", got)
	}
	if got := Fire(JournalWrite, nil).Err; got != nil {
		t.Fatalf("neighbouring point fired %v", got)
	}
	restoreInner()
	if got := Fire(JournalSync, nil).Err; got != outer {
		t.Fatalf("after inner restore: got %v, want outer", got)
	}
	restoreOuter()
	if got := Fire(JournalSync, nil).Err; got != nil {
		t.Fatalf("after outer restore: got %v, want nothing", got)
	}
}

// TestHookSeesArgument: the per-hit argument reaches the hook unchanged.
func TestHookSeesArgument(t *testing.T) {
	var seen any
	defer Set(PeerCall, func(arg any) Fault { seen = arg; return Fault{} })()
	Fire(PeerCall, "node-b")
	if seen != "node-b" {
		t.Fatalf("hook saw %v, want node-b", seen)
	}
}

func TestSetUnknownPointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set accepted an unknown point")
		}
	}()
	Set("disk.seek", nil)
}

// TestFireWhileSetting: layers fire from many goroutines while tests arm
// and restore hooks; under -race the copy-on-write map keeps Fire lock-free
// and race-clean, and every hit sees either no hook or a whole one.
func TestFireWhileSetting(t *testing.T) {
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if err := Fire(EngineRound, i).Err; err != nil && err != boom {
					t.Errorf("hit %d injected %v", i, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		Set(EngineRound, func(any) Fault { return Fault{Err: boom} })()
	}
	wg.Wait()
	if err := Fire(EngineRound, 0).Err; err != nil {
		t.Fatalf("every hook restored, yet the point injected %v", err)
	}
}
