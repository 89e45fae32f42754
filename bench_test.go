package repro

// One benchmark per figure of the paper's evaluation (Section 5). Each
// benchmark times a representative slice of the corresponding experiment at
// a small deterministic scale; cmd/emsbench regenerates the full tables.
// Additional micro-benchmarks at the bottom time the core building blocks
// (dependency graph construction, one similarity iteration, estimation,
// assignment), and ablation benchmarks isolate the design choices DESIGN.md
// calls out (artificial event, pruning, both-direction aggregation).

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/ems"
	"repro/internal/assignment"
	"repro/internal/baselines/bhv"
	"repro/internal/baselines/ged"
	"repro/internal/baselines/opq"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depgraph"
	"repro/internal/eventlog"
	"repro/internal/experiments"
	"repro/internal/matching"
)

// benchPairs builds a small deterministic testbed once per benchmark.
func benchPairs(b *testing.B, tb dataset.Testbed, events, composites int) []*dataset.Pair {
	b.Helper()
	pairs, err := dataset.MakeTestbed(tb, dataset.TestbedOptions{
		Pairs: 2, Events: events, Traces: 80,
		OpaqueFraction: 0.5, CompositeMerges: composites, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pairs
}

func benchMethod(b *testing.B, m experiments.Method, pairs []*dataset.Pair) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMethod(m, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig03 times singleton matching, structure only, per method on
// the DS-FB testbed (Figure 3).
func BenchmarkFig03(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 12, 0)
	for _, m := range []experiments.Method{
		experiments.EMS(false),
		experiments.EMSEstimate(5, false),
		experiments.GED(false),
		experiments.OPQ(),
		experiments.BHV(false),
	} {
		b.Run(m.Name, func(b *testing.B) { benchMethod(b, m, pairs) })
	}
}

// BenchmarkFig04 times singleton matching with typographic similarity
// (Figure 4).
func BenchmarkFig04(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 12, 0)
	for _, m := range []experiments.Method{
		experiments.EMS(true),
		experiments.EMSEstimate(5, true),
		experiments.GED(true),
		experiments.BHV(true),
	} {
		b.Run(m.Name, func(b *testing.B) { benchMethod(b, m, pairs) })
	}
}

// BenchmarkFig05 times the estimation trade-off at I = 0, 5 and exact
// (Figure 5).
func BenchmarkFig05(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 16, 0)
	b.Run("I=0", func(b *testing.B) { benchMethod(b, experiments.EMSEstimate(0, false), pairs) })
	b.Run("I=5", func(b *testing.B) { benchMethod(b, experiments.EMSEstimate(5, false), pairs) })
	b.Run("MAX", func(b *testing.B) { benchMethod(b, experiments.EMS(false), pairs) })
}

// BenchmarkFig06 times exact EMS with and without early-convergence pruning
// (Figure 6).
func BenchmarkFig06(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 16, 0)
	run := func(b *testing.B, prune bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				g1, _ := depgraph.Build(p.Log1)
				g2, _ := depgraph.Build(p.Log2)
				ga1, _ := g1.AddArtificial()
				ga2, _ := g2.AddArtificial()
				cfg := core.DefaultConfig()
				cfg.Prune = prune
				if _, err := core.Compute(ga1, ga2, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, true) })
	b.Run("unpruned", func(b *testing.B) { run(b, false) })
}

// BenchmarkFig07 times EMS across minimum-frequency thresholds (Figure 7).
func BenchmarkFig07(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 16, 0)
	for _, th := range []float64{0, 0.10, 0.25} {
		name := "minfreq=0.00"
		switch th {
		case 0.10:
			name = "minfreq=0.10"
		case 0.25:
			name = "minfreq=0.25"
		}
		b.Run(name, func(b *testing.B) {
			benchMethod(b, experiments.EMSMinFreq(th, false), pairs)
		})
	}
}

// BenchmarkFig08 times EMS and EMS+es across event-set sizes (Figure 8; the
// baselines' scalability is covered by Fig03 at fixed size, OPQ being
// infeasible above 30 events).
func BenchmarkFig08(b *testing.B) {
	for _, events := range []int{10, 20, 40} {
		pairs := benchPairs(b, dataset.None, events, 0)
		b.Run("EMS/"+itoa(events), func(b *testing.B) { benchMethod(b, experiments.EMS(false), pairs) })
		b.Run("EMS+es/"+itoa(events), func(b *testing.B) { benchMethod(b, experiments.EMSEstimate(5, false), pairs) })
	}
}

// BenchmarkFig09 times EMS under growing dislocation (Figure 9).
func BenchmarkFig09(b *testing.B) {
	for _, m := range []int{1, 3} {
		pairs, err := dataset.MakeTestbed(dataset.DSB, dataset.TestbedOptions{
			Pairs: 2, Events: 16, Traces: 80,
			Dislocation: m, Style: dataset.StyleTrim, OpaqueFraction: 1.0, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("m="+itoa(m), func(b *testing.B) { benchMethod(b, experiments.EMS(false), pairs) })
	}
}

// BenchmarkFig10 times composite matching, structure only (Figure 10).
func BenchmarkFig10(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 10, 2)
	b.Run("EMS", func(b *testing.B) {
		benchMethod(b, experiments.EMSComposite("EMS", false, -1, true, true, 0.005, 8), pairs)
	})
	b.Run("EMS+es", func(b *testing.B) {
		benchMethod(b, experiments.EMSComposite("EMS+es", false, 5, true, true, 0.005, 8), pairs)
	})
	b.Run("GED", func(b *testing.B) {
		benchMethod(b, experiments.GEDComposite(false, 1e-6, 4), pairs)
	})
	b.Run("BHV", func(b *testing.B) {
		benchMethod(b, experiments.BHVComposite(false, 0.005, 4), pairs)
	})
}

// BenchmarkFig11 times composite matching with typographic similarity
// (Figure 11).
func BenchmarkFig11(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 10, 2)
	b.Run("EMS", func(b *testing.B) {
		benchMethod(b, experiments.EMSComposite("EMS", true, -1, true, true, 0.005, 8), pairs)
	})
	b.Run("EMS+es", func(b *testing.B) {
		benchMethod(b, experiments.EMSComposite("EMS+es", true, 5, true, true, 0.005, 8), pairs)
	})
}

// BenchmarkFig12 times the four composite pruning configurations
// (Figure 12).
func BenchmarkFig12(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 10, 2)
	variants := []struct {
		name   string
		uc, bd bool
	}{
		{"none", false, false},
		{"Uc", true, false},
		{"Bd", false, true},
		{"Uc+Bd", true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchMethod(b, experiments.EMSComposite("EMS", false, -1, v.uc, v.bd, 0.005, 8), pairs)
		})
	}
}

// BenchmarkFig13 times composite matching across merge thresholds
// (Figure 13).
func BenchmarkFig13(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 10, 2)
	for _, d := range []float64{0.05, 0.005, 0.0005} {
		name := "delta=0.05"
		switch d {
		case 0.005:
			name = "delta=0.005"
		case 0.0005:
			name = "delta=0.0005"
		}
		b.Run(name, func(b *testing.B) {
			benchMethod(b, experiments.EMSComposite("EMS", false, -1, true, true, d, 8), pairs)
		})
	}
}

// BenchmarkFig14 times composite matching across candidate-set sizes
// (Figure 14).
func BenchmarkFig14(b *testing.B) {
	pairs := benchPairs(b, dataset.DSFB, 10, 2)
	for _, n := range []int{2, 8, 16} {
		b.Run("cands="+itoa(n), func(b *testing.B) {
			benchMethod(b, experiments.EMSComposite("EMS", false, -1, true, true, 0.005, n), pairs)
		})
	}
}

// --- Micro-benchmarks of the building blocks ---

func benchPairLogs(b *testing.B, events int) *dataset.Pair {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	p, err := dataset.GeneratePair(rng, "bench", dataset.Options{
		Events: events, Traces: 100, OpaqueFraction: 1, ExtraFront: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDepgraphBuild times dependency-graph construction from a log.
func BenchmarkDepgraphBuild(b *testing.B) {
	p := benchPairLogs(b, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := depgraph.Build(p.Log1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.AddArtificial(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSVLenient times the lenient line-by-line CSV reader on a
// 40-event, 100-trace log, the ingestion path of dirty logs, once per row
// path: "plain" is the log as WriteCSV writes it, every row split in place;
// "quoted" quotes every field, so every row goes through encoding/csv.
func BenchmarkReadCSVLenient(b *testing.B) {
	p := benchPairLogs(b, 40)
	var plain, quoted bytes.Buffer
	if err := eventlog.WriteCSV(&plain, p.Log1); err != nil {
		b.Fatal(err)
	}
	quoted.WriteString("case,event\n")
	for i, t := range p.Log1.Traces {
		for _, ev := range t {
			fmt.Fprintf(&quoted, "\"case-%d\",\"%s\"\n", i, strings.ReplaceAll(ev, `"`, `""`))
		}
	}
	for _, doc := range []struct {
		name string
		data []byte
	}{{"plain", plain.Bytes()}, {"quoted", quoted.Bytes()}} {
		b.Run(doc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eventlog.ReadCSVWith(bytes.NewReader(doc.data), "bench", eventlog.ReadOptions{Lenient: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// statsSink keeps BenchmarkCollectStats's result alive.
var statsSink *eventlog.Stats

// BenchmarkCollectStats times the Definition 1 node and edge count of a
// 40-event, 100-trace log.
func BenchmarkCollectStats(b *testing.B) {
	p := benchPairLogs(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = eventlog.CollectStats(p.Log1)
	}
}

// BenchmarkSimilarityIteration times the exact EMS fixpoint on a 30-event
// pair.
func BenchmarkSimilarityIteration(b *testing.B) {
	p := benchPairLogs(b, 30)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(ga1, ga2, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityIterationLarge times the exact EMS fixpoint on a
// 200-activity opaque pair at one worker and reports the cost of one
// formula-(1) product, the |•v1|·|•v2| edge-weighted terms of Definition 2
// that dominate the run. The products counted are those of the definition,
// whichever kernel computes them. The sparse pair is played out from 40
// traces (about 3000 edges per graph), the dense one from 200 traces of the
// same generator (about 8500); both take the factored kernel.
func BenchmarkSimilarityIterationLarge(b *testing.B) {
	for _, size := range []struct {
		name   string
		traces int
	}{{"sparse", 40}, {"dense", 200}} {
		b.Run(size.name, func(b *testing.B) {
			p, err := dataset.GeneratePair(rand.New(rand.NewSource(11)), "bench", dataset.Options{
				Events: 200, Traces: size.traces, OpaqueFraction: 1, FrequencySkew: 0.5, ExtraFront: 1, ExtraBack: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			g1, _ := depgraph.Build(p.Log1)
			g2, _ := depgraph.Build(p.Log2)
			ga1, _ := g1.AddArtificial()
			ga2, _ := g2.AddArtificial()
			cfg := core.DefaultConfig()
			cfg.Workers = 1
			// One observed run gives each direction's round count, from
			// which the products follow; its evaluation count checks the
			// replay.
			var dirs []core.DirRoundStats
			observed := cfg
			observed.OnRound = func(rb *core.RoundBoundary) { dirs = append(dirs[:0], rb.Dirs...) }
			res, err := core.Compute(ga1, ga2, observed)
			if err != nil {
				b.Fatal(err)
			}
			fe, fp := formulaProducts(b, ga1, ga2, dirs[0].Round)
			be, bp := formulaProducts(b, ga1.Reverse(), ga2.Reverse(), dirs[1].Round)
			if fe+be != int64(res.Evaluations) {
				b.Fatalf("replayed %d evaluations, the engine made %d", fe+be, res.Evaluations)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(ga1, ga2, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fp+bp), "ns/product")
		})
	}
}

// formulaProducts replays the exact, pruned iteration of one direction over
// `rounds` rounds: a real pair is evaluated while the round is within its
// Proposition-2 bound min(l(v1), l(v2)), at |•v1|·|•v2| products.
func formulaProducts(b *testing.B, g1, g2 *depgraph.Graph, rounds int) (evals, products int64) {
	l1, err := g1.LongestFromArtificial()
	if err != nil {
		b.Fatal(err)
	}
	l2, err := g2.LongestFromArtificial()
	if err != nil {
		b.Fatal(err)
	}
	for v1 := 1; v1 < g1.N(); v1++ {
		for v2 := 1; v2 < g2.N(); v2++ {
			n := int64(min(rounds, l1[v1], l2[v2]))
			evals += n
			products += n * int64(len(g1.Pre[v1])*len(g2.Pre[v2]))
		}
	}
	return evals, products
}

// BenchmarkEstimation times Algorithm 1 with I = 1 on the same pair.
func BenchmarkEstimation(b *testing.B) {
	p := benchPairLogs(b, 30)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactEstimationTradeoff(ga1, ga2, core.DefaultConfig(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignment times the Hungarian selection on a 50x50 matrix.
func BenchmarkAssignment(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 50
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assignment.Maximize(m, n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidateDiscovery times SEQ-pattern discovery.
func BenchmarkCandidateDiscovery(b *testing.B) {
	p := benchPairLogs(b, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		composite.Discover(p.Log1, composite.DefaultDiscoverOptions())
	}
}

// BenchmarkBaselines times the three competitor similarity computations on
// a common 20-event pair.
func BenchmarkBaselines(b *testing.B) {
	p := benchPairLogs(b, 20)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	b.Run("BHV", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bhv.Compute(g1, g2, bhv.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GED", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ged.Match(g1, g2, ged.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OPQ", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opq.Match(g1, g2, opq.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ---

// BenchmarkAblationArtificialEvent compares accuracy-relevant work with and
// without the artificial event (without it, dislocated matching degrades —
// this ablation times the cost of the device).
func BenchmarkAblationArtificialEvent(b *testing.B) {
	p := benchPairLogs(b, 20)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Compute(ga1, ga2, core.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without", func(b *testing.B) {
		// BHV is exactly the ablated similarity: same propagation, no
		// artificial event.
		for i := 0; i < b.N; i++ {
			if _, err := bhv.Compute(g1, g2, bhv.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDirections compares single-direction and both-direction
// similarity.
func BenchmarkAblationDirections(b *testing.B) {
	p := benchPairLogs(b, 20)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	for _, d := range []core.Direction{core.Forward, core.Backward, core.Both} {
		cfg := core.DefaultConfig()
		cfg.Direction = d
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(ga1, ga2, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd times the full public-API pipeline (build + similarity
// + selection) for plain and composite matching.
func BenchmarkEndToEnd(b *testing.B) {
	p := benchPairLogs(b, 20)
	b.Run("Match", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ems.Match(p.Log1, p.Log2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MatchComposite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ems.MatchComposite(p.Log1, p.Log2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelection times correspondence selection on realistic outputs.
func BenchmarkSelection(b *testing.B) {
	p := benchPairLogs(b, 30)
	g1, _ := depgraph.Build(p.Log1)
	g2, _ := depgraph.Build(p.Log2)
	ga1, _ := g1.AddArtificial()
	ga2, _ := g2.AddArtificial()
	r, err := core.Compute(ga1, ga2, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.Select(r.Names1, r.Names2, r.Sim, 0.25, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
