package composite

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/label"
)

// Config parameterizes the greedy composite matching of Algorithm 2.
type Config struct {
	// Sim configures the underlying EMS similarity.
	Sim core.Config
	// Delta is the minimum average-similarity improvement a merge step must
	// deliver to be accepted (the threshold δ of Algorithm 2).
	Delta float64
	// MinFrequency, when > 0, filters low-frequency edges from every
	// dependency graph before similarity computation (Section 2).
	MinFrequency float64
	// MaxSteps caps the number of accepted merges; 0 means unlimited.
	MaxSteps int
	// UseUnchanged enables the Proposition 4 pruning ("Uc"): similarities
	// provably unchanged by a merge are seeded instead of recomputed.
	UseUnchanged bool
	// UseBounds enables the Section 4.3 pruning ("Bd"): candidate
	// evaluation aborts as soon as its average-similarity upper bound
	// cannot beat the incumbent. Only applied to exact (non-estimation)
	// similarity computations.
	UseBounds bool
}

// DefaultConfig returns the paper's default composite settings: δ = 0.005
// (the value of Example 7) with both prunings enabled.
func DefaultConfig() Config {
	return Config{Sim: core.DefaultConfig(), Delta: 0.005, UseUnchanged: true, UseBounds: true}
}

// Stats reports the work the greedy search performed.
type Stats struct {
	// Evaluations counts formula-(1) evaluations across every similarity
	// computation (the Figure 12 metric).
	Evaluations int
	// CandidatesTried counts candidate evaluations started.
	CandidatesTried int
	// CandidatesAborted counts evaluations cut short by the upper-bound
	// pruning.
	CandidatesAborted int
	// StepsAccepted counts accepted merges.
	StepsAccepted int
}

// Result is the outcome of greedy composite matching.
type Result struct {
	// Final is the similarity over the merged dependency graphs; merged
	// node names join their constituents with NameSep (see SplitName).
	Final *core.Result
	// Merged1 and Merged2 list the accepted composites per side.
	Merged1, Merged2 []Candidate
	// Log1 and Log2 are the logs after merging.
	Log1, Log2 *eventlog.Log
	// Stats reports the search effort.
	Stats Stats
}

// Greedy runs Algorithm 2: starting from singleton similarity, it repeatedly
// merges the candidate composite event (from either log) that maximizes the
// average pair-wise similarity, until no candidate improves it by at least
// Delta. cands1 and cands2 are the candidate sets for the two logs (see
// Discover).
func Greedy(l1, l2 *eventlog.Log, cands1, cands2 []Candidate, cfg Config) (*Result, error) {
	if err := cfg.Sim.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sim.Labels != nil && cfg.Sim.Alpha < 1 {
		cfg.Sim.Labels = memoLabels(cfg.Sim.Labels)
	}
	cur1, cur2 := l1.Clone(), l2.Clone()
	g1, err := buildGraph(cur1, cfg.MinFrequency)
	if err != nil {
		return nil, err
	}
	g2, err := buildGraph(cur2, cfg.MinFrequency)
	if err != nil {
		return nil, err
	}
	base, err := core.Compute(g1, g2, cfg.Sim)
	if err != nil {
		return nil, err
	}
	res := &Result{Log1: cur1, Log2: cur2}
	res.Stats.Evaluations = base.Evaluations

	used1 := make(map[string]bool)
	used2 := make(map[string]bool)
	for {
		if cfg.MaxSteps > 0 && res.Stats.StepsAccepted >= cfg.MaxSteps {
			break
		}
		type best struct {
			side int
			cand Candidate
			log  *eventlog.Log
			g    *depgraph.Graph
			res  *core.Result
		}
		var b *best
		bestAvg := base.Avg() + cfg.Delta
		// The candidate loop can be long; honor the cancellation hook between
		// candidate evaluations too, not only inside the engine rounds.
		if cfg.Sim.Stop != nil {
			if cause := cfg.Sim.Stop(); cause != nil {
				return nil, &core.StopError{Cause: cause}
			}
		}
		try := func(side int, cand Candidate, curLog *eventlog.Log, curG, otherG *depgraph.Graph) error {
			merged := curLog.MergeConsecutive(cand.Events, JoinName(cand.Events))
			mg, err := buildGraph(merged, cfg.MinFrequency)
			if err != nil {
				return err
			}
			var seed *core.Seed
			if cfg.UseUnchanged {
				seed = unchangedSeed(side, base, mg, cand)
			}
			var g1c, g2c *depgraph.Graph
			if side == 1 {
				g1c, g2c = mg, otherG
			} else {
				g1c, g2c = otherG, mg
			}
			comp, err := core.NewComputation(g1c, g2c, cfg.Sim, seed)
			if err != nil {
				return err
			}
			res.Stats.CandidatesTried++
			if cfg.UseBounds && cfg.Sim.EstimateI < 0 {
				// The bound is far above any attainable average in early
				// rounds and costs O(n1*n2) to evaluate, so it is checked
				// only every few rounds once the geometric slack has had a
				// chance to shrink.
				for round := 1; ; round++ {
					done, err := comp.Step()
					if err != nil {
						return err
					}
					if round >= 4 && round%3 == 1 {
						ub, err := comp.AvgUpperBound()
						if err != nil {
							return err
						}
						if ub < bestAvg {
							res.Stats.CandidatesAborted++
							res.Stats.Evaluations += comp.Evaluations()
							return nil
						}
					}
					if done {
						break
					}
				}
			} else {
				if err := comp.Run(); err != nil {
					return err
				}
			}
			r, err := comp.Result()
			if err != nil {
				return err
			}
			res.Stats.Evaluations += r.Evaluations
			if avg := r.Avg(); avg >= bestAvg {
				bestAvg = avg
				b = &best{side: side, cand: cand, log: merged, g: mg, res: r}
			}
			return nil
		}
		for _, cand := range cands1 {
			if cand.Overlaps(used1) {
				continue
			}
			if err := try(1, cand, cur1, g1, g2); err != nil {
				return nil, err
			}
		}
		for _, cand := range cands2 {
			if cand.Overlaps(used2) {
				continue
			}
			if err := try(2, cand, cur2, g2, g1); err != nil {
				return nil, err
			}
		}
		if b == nil {
			break
		}
		if b.side == 1 {
			cur1 = b.log
			g1 = b.g
			res.Merged1 = append(res.Merged1, b.cand)
			markUsed(used1, b.cand)
		} else {
			cur2 = b.log
			g2 = b.g
			res.Merged2 = append(res.Merged2, b.cand)
			markUsed(used2, b.cand)
		}
		base = b.res
		res.Stats.StepsAccepted++
	}
	res.Final = base
	res.Log1, res.Log2 = cur1, cur2
	return res, nil
}

// memoLabels wraps sim so each (name1, name2) pair is scored once. Every
// candidate computation of a search shares all names but the merged one
// with the base matrix, so one memo per Greedy call covers the base names
// plus one new row or column per candidate, and is dropped with the call.
// Label-matrix rows run on parallel workers, hence the lock.
func memoLabels(sim label.Similarity) label.Similarity {
	var mu sync.Mutex
	memo := make(map[[2]string]float64)
	return func(a, b string) float64 {
		k := [2]string{a, b}
		mu.Lock()
		v, ok := memo[k]
		mu.Unlock()
		if !ok {
			v = sim(a, b)
			mu.Lock()
			memo[k] = v
			mu.Unlock()
		}
		return v
	}
}

func markUsed(used map[string]bool, cand Candidate) {
	for _, e := range cand.Events {
		used[e] = true
	}
}

// buildGraph constructs the dependency graph of a log with the artificial
// event, applying the minimum-frequency filter first.
func buildGraph(l *eventlog.Log, minFreq float64) (*depgraph.Graph, error) {
	g, err := depgraph.Build(l)
	if err != nil {
		return nil, err
	}
	ga, err := g.AddArtificial()
	if err != nil {
		return nil, err
	}
	if minFreq > 0 {
		ga = ga.FilterMinFrequency(minFreq)
	}
	return ga, nil
}

// unchangedSeed builds the Proposition 4 seed: after merging a composite
// into the graph on the given side, every node whose similarities are
// provably unaffected keeps its previous row (side 1) or column (side 2)
// and is frozen.
//
// The affected roots are the merged node itself and any surviving
// constituent events (a constituent survives when the run only sometimes
// occurs consecutively, so some of its occurrences were not merged; its
// node and edge frequencies change). Every edge-frequency change of the
// merge is incident to a root, so forward similarities can change only for
// roots and their descendants, and backward similarities only for roots and
// their ancestors.
func unchangedSeed(side int, prev *core.Result, mergedG *depgraph.Graph, cand Candidate) *core.Seed {
	roots := make(map[int]bool)
	if i, ok := mergedG.Index[JoinName(cand.Events)]; ok {
		roots[i] = true
	}
	for _, e := range cand.Events {
		if i, ok := mergedG.Index[e]; ok {
			roots[i] = true
		}
	}
	if len(roots) == 0 {
		return nil
	}
	seed := &core.Seed{From: prev, Side: side}
	// Fixed[0] is the forward mask, Fixed[1] the backward one.
	for d, changed := range []map[int]bool{mergedG.Descendants(roots), mergedG.Ancestors(roots)} {
		fixed := make([]bool, mergedG.N())
		for i := mergedG.RealStart(); i < mergedG.N(); i++ {
			fixed[i] = !roots[i] && !changed[i]
		}
		seed.Fixed[d] = fixed
	}
	return seed
}

// String renders a candidate for diagnostics.
func (c Candidate) String() string {
	return fmt.Sprintf("%s (support %.2f)", DisplayName(JoinName(c.Events)), c.Support)
}
