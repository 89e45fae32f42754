// Package failpoint is the process-wide registry of named fault-injection
// points. Each instrumented layer fires its points from a single call site
// and gives the returned Fault its own meaning there: a stalled or panicking
// engine round, a failed or torn journal write, a slow or refused peer
// exchange. Tests and the chaos harness (internal/chaos) install hooks by
// point name; production code never installs one, and an unarmed point
// costs one atomic load.
//
// Adding a failpoint takes a Point constant here plus one Fire call in the
// layer that owns it.
package failpoint

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site.
type Point string

const (
	// EngineRound fires at the start of every similarity iteration round
	// (internal/core), before the round's stop check, with the 1-based round
	// number as argument. Delay stalls the round; a non-nil Err panics the
	// computation with it.
	EngineRound Point = "engine.round"
	// JournalWrite fires before a WAL record frame is written
	// (internal/journal). Err fails the append; journal.ErrShortWrite first
	// writes half the frame, leaving a torn tail.
	JournalWrite Point = "journal.write"
	// JournalSync fires before a WAL fsync and before the fsync inside
	// journal.WriteFileAtomic. Err fails the operation.
	JournalSync Point = "journal.sync"
	// JournalCreate fires before a WAL segment is created (open, rotation,
	// compaction). Err fails the operation.
	JournalCreate Point = "journal.create"
	// PeerCall fires before every peer HTTP exchange (internal/cluster) with
	// the peer's node ID as argument. Delay stalls the exchange within the
	// caller's context, Err fails it as a transport error, and a non-zero
	// Status answers it with Status and Body without touching the network.
	PeerCall Point = "peer.call"
)

// Points lists every injection site.
func Points() []Point {
	return []Point{EngineRound, JournalWrite, JournalSync, JournalCreate, PeerCall}
}

// Fault is what one hit of a point injects; the zero value injects nothing.
// Delay applies first, then the layer-specific effect of the other fields
// (see the Point constants).
type Fault struct {
	Delay  time.Duration
	Err    error
	Status int
	Body   []byte
}

// Hook decides the fault of one hit. arg is the point's per-hit detail (the
// round at EngineRound, the node ID at PeerCall, nil elsewhere). Hooks run
// on the firing goroutine — a hook may itself block or panic — and may be
// called from many goroutines at once.
type Hook func(arg any) Fault

var (
	mu    sync.Mutex                     // serializes Set and restore
	hooks atomic.Pointer[map[Point]Hook] // copy-on-write, so Fire never locks
)

// Set installs h at point p and returns a function that reinstates whatever
// was installed before; a nil h clears the point. It panics on a point that
// is not in Points.
func Set(p Point, h Hook) (restore func()) {
	if !slices.Contains(Points(), p) {
		panic(fmt.Sprintf("failpoint: unknown point %q", p))
	}
	mu.Lock()
	defer mu.Unlock()
	old := lookup(p)
	put(p, h)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		put(p, old)
	}
}

// put replaces p's hook in a fresh copy of the map. Caller holds mu.
func put(p Point, h Hook) {
	next := make(map[Point]Hook)
	if m := hooks.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	delete(next, p)
	if h != nil {
		next[p] = h
	}
	hooks.Store(&next)
}

func lookup(p Point) Hook {
	if m := hooks.Load(); m != nil {
		return (*m)[p]
	}
	return nil
}

// Fire runs the hook installed at p, if any, and returns its fault.
func Fire(p Point, arg any) Fault {
	if h := lookup(p); h != nil {
		return h(arg)
	}
	return Fault{}
}
