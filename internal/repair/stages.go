package repair

import (
	"repro/internal/depgraph"
	"repro/internal/eventlog"
)

// CollapseDuplicates drops a repeated event recorded within Window positions
// of an earlier kept copy of the same event — the shape stuttering sensors
// and at-least-once delivery produce. The default window of 1 removes only
// immediately adjacent repeats, so legitimate loops that revisit an event
// after other work are untouched. The stage is idempotent by construction:
// after one pass no two equal events remain within Window of each other.
type CollapseDuplicates struct {
	// Window is the look-back distance in kept events; <= 0 means 1.
	Window int
}

func (s *CollapseDuplicates) Name() string { return "collapse-duplicates" }

func (s *CollapseDuplicates) Repair(_ *Context, t eventlog.Trace) (eventlog.Trace, Counts, Reason) {
	w := s.Window
	if w <= 0 {
		w = 1
	}
	var c Counts
	out := make(eventlog.Trace, 0, len(t))
	for _, e := range t {
		dup := false
		for k := len(out) - 1; k >= 0 && k >= len(out)-w; k-- {
			if out[k] == e {
				dup = true
				break
			}
		}
		if dup {
			c.Dropped++
			continue
		}
		out = append(out, e)
	}
	return out, c, ""
}

// RepairOrder undoes local disorder (clock skew, unordered delivery) by
// majority vote over the whole log: an adjacent pair (a,b) is transposed
// when the log records the reverse order (b,a) at least Ratio times as
// often. Because the statistics come from the stage's input log, every
// observed adjacency has frequency > 0, so the vote always compares two
// real occurrence counts. Transpositions are applied in bounded bubble
// passes; a trace that still wants swaps after the pass budget has no
// consistent order under the dependency relation and is quarantined as
// order-unstable rather than emitted half-repaired.
type RepairOrder struct {
	// Ratio is the dominance ratio; <= 0 adapts to the log's measured
	// dirtiness: 4 on clean-looking logs (sparing legitimate concurrency
	// interleavings, which rarely exceed 4:1 skew), 2 on visibly noisy ones
	// (where undoing more disorder outweighs the occasional false swap).
	Ratio float64
	// MaxFwd caps the observed frequency of the order being undone: a pair
	// is only read as disorder when few traces record it, since recording
	// noise is rare by nature while legitimate concurrency interleavings
	// are common. <= 0 means 0.25; >= 1 disables the cap.
	MaxFwd float64
	// MaxPasses bounds the bubble passes; <= 0 means len(trace)+1, enough
	// for any stable order to settle.
	MaxPasses int
}

func (s *RepairOrder) Name() string { return "repair-order" }

func (s *RepairOrder) Repair(ctx *Context, t eventlog.Trace) (eventlog.Trace, Counts, Reason) {
	ratio := s.Ratio
	if ratio <= 0 {
		ratio = 4
		if ctx.Dirtiness > dirtyThreshold {
			ratio = 2
		}
	}
	maxFwd := s.MaxFwd
	if maxFwd <= 0 {
		maxFwd = 0.25
	}
	maxPasses := s.MaxPasses
	if maxPasses <= 0 {
		maxPasses = len(t) + 1
	}
	out := t.Clone()
	var c Counts
	for pass := 0; pass < maxPasses; pass++ {
		swapped := false
		for i := 0; i+1 < len(out); i++ {
			a, b := out[i], out[i+1]
			if a == b {
				continue
			}
			fwd, rev := ctx.orderFreq(a, b)
			if rev > fwd && rev >= ratio*fwd && fwd <= maxFwd {
				// Refuse a transposition that would fabricate an adjacent
				// duplicate: the collapse stage has already run, so a new
				// stutter here would survive to the output and break the
				// pipeline's fixpoint property.
				if (i > 0 && out[i-1] == b) || (i+2 < len(out) && out[i+2] == a) {
					continue
				}
				out[i], out[i+1] = b, a
				c.Reordered++
				swapped = true
				// Leave the displaced event to the next pass instead of
				// cascading it through this one; bounded passes stay bounded.
				i++
			}
		}
		if !swapped {
			return out, c, ""
		}
	}
	return t.Clone(), Counts{}, ReasonOrderUnstable
}

// ImputeMissing re-inserts events lost between two observed neighbors. For
// an adjacent pair (a,b) it consults the dependency relation: when some c
// both follows a and precedes b with frequency at least MinPath, and that
// indirect path is at least Ratio times stronger than the direct a->b edge,
// the direct adjacency is read as "c was dropped here" and the strongest
// such c is inserted. A trace demanding more than MaxPerTrace insertions is
// quarantined as beyond repair — that much loss is a recording failure, not
// a repairable instance.
type ImputeMissing struct {
	// Ratio is the indirect-over-direct dominance factor; <= 0 means 4.
	Ratio float64
	// MinPath is the minimum frequency of both path edges; <= 0 adapts to
	// the log's measured dirtiness: 0.5 on clean-looking logs (only paths
	// the log overwhelmingly supports justify inventing an event), 0.25 on
	// visibly noisy ones.
	MinPath float64
	// MaxPerTrace is the imputation budget per trace; <= 0 means 3.
	MaxPerTrace int
}

func (s *ImputeMissing) Name() string { return "impute-missing" }

func (s *ImputeMissing) Repair(ctx *Context, t eventlog.Trace) (eventlog.Trace, Counts, Reason) {
	ratio := s.Ratio
	if ratio <= 0 {
		ratio = 4
	}
	minPath := s.MinPath
	if minPath <= 0 {
		minPath = 0.5
		if ctx.Dirtiness > dirtyThreshold {
			minPath = 0.25
		}
	}
	budget := s.MaxPerTrace
	if budget <= 0 {
		budget = 3
	}
	var c Counts
	out := make(eventlog.Trace, 0, len(t)+budget)
	out = append(out, t[0])
	for i := 0; i+1 < len(t); i++ {
		a, b := t[i], t[i+1]
		if cand, ok := imputeCandidate(ctx.Graph, a, b, ratio, minPath); ok {
			if c.Imputed >= budget {
				return t.Clone(), Counts{}, ReasonBeyondRepair
			}
			out = append(out, cand)
			c.Imputed++
		}
		out = append(out, b)
	}
	return out, c, ""
}

// imputeCandidate picks the event to insert between a and b, or ok=false.
// Candidates are the successors of a that are also predecessors of b; the
// score of c is min(freq(a,c), freq(c,b)) — the weakest link of the path —
// and the best-scoring candidate wins, ties broken by name so the choice is
// deterministic.
func imputeCandidate(g *depgraph.Graph, a, b eventlog.Event, ratio, minPath float64) (eventlog.Event, bool) {
	ia, ok1 := g.Index[string(a)]
	ib, ok2 := g.Index[string(b)]
	if !ok1 || !ok2 {
		return "", false
	}
	direct := g.EdgeFreq[ia][ib]
	best := ""
	bestScore := 0.0
	for _, ic := range g.Post[ia] {
		if ic == ia || ic == ib {
			continue
		}
		score := min(g.EdgeFreq[ia][ic], g.EdgeFreq[ic][ib])
		if score < minPath || score < ratio*direct {
			continue
		}
		name := g.Names[ic]
		if score > bestScore || (score == bestScore && (best == "" || name < best)) {
			best, bestScore = name, score
		}
	}
	if best == "" {
		return "", false
	}
	return eventlog.Event(best), true
}
