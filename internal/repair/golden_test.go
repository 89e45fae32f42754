package repair

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/procgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the pipeline golden from the current stages")

// pipelineGolden pins one Pipeline.Run: the repaired traces as a digest and
// the full report.
type pipelineGolden struct {
	Case         string          `json:"case"`
	TracesSHA256 string          `json:"traces_sha256"`
	Report       json.RawMessage `json:"report"`
}

// tracesDigest hashes the traces event by event, with separators no event
// name in the workload contains.
func tracesDigest(l *eventlog.Log) string {
	h := sha256.New()
	for _, t := range l.Traces {
		for _, e := range t {
			h.Write([]byte(e))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPipelineGolden pins the default pipeline, with adaptive and with
// explicit knobs, on noisy procgen logs: drop, swap and duplicate noise
// alone and together at 0.02, 0.05 and 0.10. Every run must reproduce the
// stored digest of the repaired traces and the stored report exactly.
// Regenerate deliberately with `go test ./internal/repair -run PipelineGolden -update`.
func TestPipelineGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var clean []*eventlog.Log
	for _, acts := range []int{12, 30} {
		spec, err := procgen.Generate(rng, procgen.DefaultOptions(acts))
		if err != nil {
			t.Fatal(err)
		}
		opts := procgen.DefaultPlayout()
		opts.Traces = 80
		l, err := spec.Playout(rng, fmt.Sprintf("procgen-%d", acts), opts)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, l)
	}
	pipelines := []struct {
		name string
		p    *Pipeline
	}{
		{"adaptive", Default(Options{})},
		{"explicit", Default(Options{Window: 2, OrderRatio: 3, OrderMaxFwd: 1, OrderMaxPasses: 2, ImputeMinPath: 0.2, ImputeMax: 1})},
	}
	var got []pipelineGolden
	var total Report
	for _, level := range []float64{0.02, 0.05, 0.10} {
		for _, kind := range []string{"drop", "swap", "dup", "all"} {
			var noise eventlog.NoiseOptions
			switch kind {
			case "drop":
				noise.DropProb = level
			case "swap":
				noise.SwapProb = level
			case "dup":
				noise.DupProb = level
			default:
				noise = eventlog.NoiseOptions{DropProb: level, SwapProb: level, DupProb: level}
			}
			for _, l := range clean {
				noisy, err := eventlog.AddNoise(rng, l, noise)
				if err != nil {
					t.Fatal(err)
				}
				for _, pl := range pipelines {
					name := fmt.Sprintf("%s %s %.2f %s", l.Name, kind, level, pl.name)
					out, rep, err := pl.p.Run(noisy)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					data, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, pipelineGolden{Case: name, TracesSHA256: tracesDigest(out), Report: data})
					total.EventsDropped += rep.EventsDropped
					total.EventsReordered += rep.EventsReordered
					total.EventsImputed += rep.EventsImputed
					total.TracesQuarantined += rep.TracesQuarantined
				}
			}
		}
	}
	// The pin is only worth something if every stage acts somewhere.
	if total.EventsDropped == 0 || total.EventsReordered == 0 || total.EventsImputed == 0 || total.TracesQuarantined == 0 {
		t.Fatalf("golden workload is vacuous: %+v", total)
	}
	path := filepath.Join("testdata", "pipeline_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	var want []pipelineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, got %d", len(want), len(got))
	}
	for i := range want {
		var w, g any
		if err := json.Unmarshal(want[i].Report, &w); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(got[i].Report, &g); err != nil {
			t.Fatal(err)
		}
		if want[i].Case != got[i].Case || want[i].TracesSHA256 != got[i].TracesSHA256 || !reflect.DeepEqual(w, g) {
			t.Errorf("run %d differs from the golden:\n got %s %s %s\nwant %s %s %s", i,
				got[i].Case, got[i].TracesSHA256, got[i].Report, want[i].Case, want[i].TracesSHA256, want[i].Report)
		}
	}
}
