package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/procgen"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test compares the
// printed metrics with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced,
// with every output check on, and checks that each prints exactly the
// metrics BENCHMARK.json declares, with their units.
func TestWorkloadsToy(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := run(runConfig{seed: 7, seconds: 1, trace: trace, toy: true, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s (trace %t): correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s (trace %t): metric %s [%s] is not in BENCHMARK.json with that unit", w.Name, trace, name, m.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, m.Value)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s (trace %t): printed %d metrics %v, BENCHMARK.json declares %d", w.Name, trace, len(got), got, len(want))
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
}

// TestPairRandKeepsModel checks the spliced source: whatever the run seed,
// the process model is the one the model seed alone builds.
func TestPairRandKeepsModel(t *testing.T) {
	want, err := procgen.Generate(rand.New(rand.NewSource(5)), procgen.DefaultOptions(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		rng, err := pairRand(5, seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		got, err := procgen.Generate(rng, procgen.DefaultOptions(40))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run seed %d changed the process model", seed)
		}
	}
	a, _, err := makePair(5, 1, 0, largeOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := makePair(5, 2, 0, largeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Log1.Equal(b.Log1) {
		t.Fatal("two run seeds gave the same log")
	}
}
