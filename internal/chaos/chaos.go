// Package chaos drives the failpoint registry (internal/failpoint) from
// seeded, declarative schedules: one schedule arms every point the codebase
// exposes — engine rounds (internal/core), WAL writes, fsyncs and segment
// creation (internal/journal), and peer HTTP exchanges (internal/cluster).
//
// A Schedule is a seed plus an ordered rule list. Each rule names a point,
// a fault to inject there, and when to fire (skip the first After hits,
// fire at most Count times, fire each eligible hit with probability Prob).
// Randomness is deterministic: rule i draws from its own PRNG seeded with
// Seed+i, so the same schedule against the same workload injects the same
// faults — the property the chaos suite's replay target depends on.
//
// Schedules serialize as JSON (see ParseSchedule) so CI can replay a
// committed schedule file byte-for-byte:
//
//	{
//	  "seed": 2014,
//	  "rules": [
//	    {"point": "journal.sync", "fault": "enospc", "after": 3, "count": 2},
//	    {"point": "engine.round", "fault": "delay", "delay_ms": 5, "prob": 0.5},
//	    {"point": "peer.call", "fault": "http-503", "node": "node-b", "count": 1}
//	  ]
//	}
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/failpoint"
	"repro/internal/journal"
)

// Rule arms one fault at one point.
type Rule struct {
	Point failpoint.Point `json:"point"`
	// Fault selects the effect among the point's faults (see faults); the
	// zero value means the point's default. "delay" stalls (a slow round or
	// peer), "panic" crashes the computation, "torn" half-writes a journal
	// frame, "enospc" and "error" fail the operation, "timeout" fails a peer
	// call as a transport error, "http-503" answers it with a 503, and
	// "flap" alternates 503 and pass.
	Fault string `json:"fault,omitempty"`
	// Prob fires the rule on each eligible hit with this probability;
	// 0 means always.
	Prob float64 `json:"prob,omitempty"`
	// After skips the first N hits of the point (armed from hit N+1 on).
	After int `json:"after,omitempty"`
	// Count bounds how many times the rule fires; 0 means unlimited.
	Count int `json:"count,omitempty"`
	// DelayMS is the stall for "delay" faults (and is added before any
	// other fault when set).
	DelayMS int `json:"delay_ms,omitempty"`
	// Node restricts a peer.call rule to one node ID; empty matches all.
	Node string `json:"node,omitempty"`
}

// Schedule is a complete, deterministic chaos plan.
type Schedule struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// ParseSchedule decodes a JSON schedule and validates every rule.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Schedule) validate() error {
	if len(s.Rules) == 0 {
		return errors.New("chaos: schedule has no rules")
	}
	for i, r := range s.Rules {
		if _, known := faults[r.Point]; !known {
			return fmt.Errorf("chaos: rule %d: unknown point %q", i, r.Point)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("chaos: rule %d: prob %v out of [0,1]", i, r.Prob)
		}
		if _, err := faultFor(r); err != nil {
			return fmt.Errorf("chaos: rule %d: %w", i, err)
		}
	}
	return nil
}

// ErrInjected is the base error of generic injected faults, so tests can
// errors.Is their way to "this failure was ours".
var ErrInjected = errors.New("chaos: injected fault")

// newRuleRNG builds rule i's private random stream: seeded with Seed+i so
// every rule draws independently yet reproducibly.
func newRuleRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)))
}

// armedRule is one rule plus its firing state. Failpoint hooks run from
// many goroutines; mu guards the counters and the rule's private PRNG.
type armedRule struct {
	Rule
	mu    sync.Mutex
	rng   *rand.Rand
	hits  int
	fired int
}

// fire decides — deterministically given the hit sequence — whether this
// rule triggers on the current hit.
func (a *armedRule) fire() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hits++
	if a.hits <= a.After {
		return false
	}
	if a.Count > 0 && a.fired >= a.Count {
		return false
	}
	if a.Prob > 0 && a.Prob < 1 && a.rng.Float64() >= a.Prob {
		return false
	}
	a.fired++
	return true
}

// flapOpen reports the current half-cycle of a "flap" fault: odd firings
// fail, even firings pass.
func (a *armedRule) flapOpen() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fired%2 == 1
}

// Activate installs the schedule into the failpoint registry, one hook per
// point that has rules, and returns a restore function that uninstalls all
// of them. Only one schedule should be active at a time (failpoints are
// process-global).
func (s *Schedule) Activate() (restore func(), err error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	byPoint := map[failpoint.Point][]*armedRule{}
	for i, r := range s.Rules {
		byPoint[r.Point] = append(byPoint[r.Point], &armedRule{Rule: r, rng: newRuleRNG(s.Seed, i)})
	}
	var restores []func()
	for _, p := range failpoint.Points() {
		rules := byPoint[p]
		if len(rules) == 0 {
			continue
		}
		restores = append(restores, failpoint.Set(p, func(arg any) failpoint.Fault {
			for _, a := range rules {
				if a.Point == failpoint.PeerCall && a.Node != "" && a.Node != arg {
					continue
				}
				if a.fire() {
					return a.fault(arg)
				}
			}
			return failpoint.Fault{}
		}))
	}
	return func() {
		for i := len(restores) - 1; i >= 0; i-- {
			restores[i]()
		}
	}, nil
}

// faults lists the valid fault names of each point, its default first.
var faults = map[failpoint.Point][]string{
	failpoint.EngineRound:   {"delay", "panic"},
	failpoint.JournalWrite:  {"error", "enospc", "torn"},
	failpoint.JournalSync:   {"error", "enospc"},
	failpoint.JournalCreate: {"error", "enospc"},
	failpoint.PeerCall:      {"timeout", "http-503", "flap", "delay"},
}

// faultFor resolves a rule's fault name against its point.
func faultFor(r Rule) (string, error) {
	valid := faults[r.Point]
	switch {
	case r.Fault == "":
		return valid[0], nil
	case slices.Contains(valid, r.Fault):
		return r.Fault, nil
	}
	return "", fmt.Errorf("fault %q not valid at %s", r.Fault, r.Point)
}

// fault builds the injected fault of one firing. DelayMS stalls every
// fault; a "delay" fault stalls at least 1ms.
func (a *armedRule) fault(arg any) failpoint.Fault {
	f := failpoint.Fault{Delay: time.Duration(a.DelayMS) * time.Millisecond}
	name, _ := faultFor(a.Rule)
	switch name {
	case "delay":
		f.Delay = max(f.Delay, time.Millisecond)
	case "panic":
		f.Err = fmt.Errorf("chaos: injected engine panic at round %v", arg)
	case "torn":
		f.Err = journal.ErrShortWrite
	case "enospc":
		f.Err = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	case "error":
		f.Err = fmt.Errorf("%w at %s", ErrInjected, a.Point)
	case "timeout":
		f.Err = fmt.Errorf("%w: peer timeout", ErrInjected)
	case "http-503":
		f.Status, f.Body = 503, []byte(`{"error": "chaos: injected overload"}`)
	case "flap":
		if a.flapOpen() {
			f.Status, f.Body = 503, []byte(`{"error": "chaos: flapping peer"}`)
		}
	}
	return f
}
