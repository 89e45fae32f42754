package eventlog_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/procgen"
)

// oracleCollectStats is the reference Definition 1 count: string-keyed
// maps, with the per-trace "seen" sets cleared on every trace.
// CollectStats must agree with it on every key and every float bit.
func oracleCollectStats(l *eventlog.Log) *eventlog.Stats {
	s := &eventlog.Stats{
		TraceCount: len(l.Traces),
		NodeFreq:   make(map[eventlog.Event]float64),
		EdgeFreq:   make(map[[2]eventlog.Event]float64),
	}
	if len(l.Traces) == 0 {
		return s
	}
	nodeCount := make(map[eventlog.Event]int)
	edgeCount := make(map[[2]eventlog.Event]int)
	seenNode := make(map[eventlog.Event]bool)
	seenEdge := make(map[[2]eventlog.Event]bool)
	for _, t := range l.Traces {
		clear(seenNode)
		clear(seenEdge)
		for i, e := range t {
			if !seenNode[e] {
				seenNode[e] = true
				nodeCount[e]++
			}
			if i+1 < len(t) {
				p := [2]eventlog.Event{e, t[i+1]}
				if !seenEdge[p] {
					seenEdge[p] = true
					edgeCount[p]++
				}
			}
		}
	}
	n := float64(len(l.Traces))
	for e, c := range nodeCount {
		s.NodeFreq[e] = float64(c) / n
	}
	for p, c := range edgeCount {
		s.EdgeFreq[p] = float64(c) / n
	}
	return s
}

func sameStats(t *testing.T, name string, got, want *eventlog.Stats) {
	t.Helper()
	if got.TraceCount != want.TraceCount {
		t.Errorf("%s: TraceCount %d, want %d", name, got.TraceCount, want.TraceCount)
	}
	if len(got.NodeFreq) != len(want.NodeFreq) || len(got.EdgeFreq) != len(want.EdgeFreq) {
		t.Errorf("%s: %d nodes and %d edges, want %d and %d", name,
			len(got.NodeFreq), len(got.EdgeFreq), len(want.NodeFreq), len(want.EdgeFreq))
	}
	for e, w := range want.NodeFreq {
		if g, ok := got.NodeFreq[e]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: NodeFreq[%q] = %v (present %v), want %v", name, e, g, ok, w)
		}
	}
	for p, w := range want.EdgeFreq {
		if g, ok := got.EdgeFreq[p]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: EdgeFreq[%q] = %v (present %v), want %v", name, p, g, ok, w)
		}
	}
}

func logOf(name string, traces ...eventlog.Trace) *eventlog.Log {
	return &eventlog.Log{Name: name, Traces: traces}
}

// TestCollectStatsMatchesOracle holds CollectStats to the reference count
// on hand-made corner cases and on noisy procgen playouts.
func TestCollectStatsMatchesOracle(t *testing.T) {
	cases := []*eventlog.Log{
		logOf("empty"),
		logOf("stutters", eventlog.Trace{"a", "a", "a"}, eventlog.Trace{"a", "b", "b", "a"}),
		logOf("single-event traces", eventlog.Trace{"a"}, eventlog.Trace{"b"}, eventlog.Trace{"a"}),
		logOf("pair repeated within a trace", eventlog.Trace{"a", "b", "a", "b", "a", "b"}, eventlog.Trace{"b", "a"}),
		logOf("empty trace", eventlog.Trace{}, eventlog.Trace{"a", "b"}),
	}
	rng := rand.New(rand.NewSource(5))
	for i, acts := range []int{1, 5, 20, 60} {
		spec, err := procgen.Generate(rng, procgen.DefaultOptions(acts))
		if err != nil {
			t.Fatal(err)
		}
		opts := procgen.DefaultPlayout()
		opts.Traces = 30 + 40*i
		l, err := spec.Playout(rng, "procgen", opts)
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := eventlog.AddNoise(rng, l, eventlog.NoiseOptions{DropProb: 0.05, SwapProb: 0.05, DupProb: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, l, noisy)
	}
	for i, l := range cases {
		sameStats(t, fmt.Sprintf("%s #%d", l.Name, i), eventlog.CollectStats(l), oracleCollectStats(l))
	}
}
