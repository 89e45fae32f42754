package composite_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/label"
)

var updateGolden = flag.Bool("update", false, "rewrite the greedy goldens from the current search")

// greedyGolden pins one composite.Greedy run: the combined similarity as a
// digest of its float64 bits, the search statistics and the accepted merges.
type greedyGolden struct {
	Pair              string     `json:"pair"`
	Direction         string     `json:"direction"`
	SimSHA256         string     `json:"sim_sha256"`
	Evaluations       int        `json:"evaluations"`
	CandidatesTried   int        `json:"candidates_tried"`
	CandidatesAborted int        `json:"candidates_aborted"`
	StepsAccepted     int        `json:"steps_accepted"`
	Merged1           [][]string `json:"merged1"`
	Merged2           [][]string `json:"merged2"`
}

// bitsDigest hashes the exact float64 bits of a matrix.
func bitsDigest(m []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range m {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGreedyGolden pins the greedy search of Algorithm 2, with both
// prunings on and delta 0.001, to stored results: six DS-FB pairs with
// injected composites and q-gram labels, in both directions and the forward direction alone,
// at one and two workers. Every run must reproduce the stored similarity
// bits, statistics and merges exactly, so any change to how merge steps
// seed their computations (Proposition 4) that moves a single bit, an
// evaluation count or a merge decision fails here. Regenerate deliberately
// with `go test ./internal/composite -run GreedyGolden -update`.
func TestGreedyGolden(t *testing.T) {
	pairs, err := dataset.MakeTestbed(dataset.DSFB, dataset.TestbedOptions{
		Pairs: 6, Events: 20, Traces: 60, OpaqueFraction: 0.5, CompositeMerges: 2, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	discover := composite.DiscoverOptions{Confidence: 0.9, MaxLen: 4, MaxCandidates: 8}
	var got []greedyGolden
	for _, p := range pairs {
		c1 := composite.Discover(p.Log1, discover)
		c2 := composite.Discover(p.Log2, discover)
		for _, dir := range []core.Direction{core.Both, core.Forward} {
			var first *greedyGolden
			for _, workers := range []int{1, 2} {
				cfg := composite.DefaultConfig()
				cfg.Sim.Alpha = 0.7
				cfg.Delta = 0.001
				cfg.Sim.Labels = label.QGramCosine(3)
				cfg.Sim.Direction = dir
				cfg.Sim.Workers = workers
				res, err := composite.Greedy(p.Log1, p.Log2, c1, c2, cfg)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", p.Name, dir, workers, err)
				}
				g := greedyGolden{
					Pair:              p.Name,
					Direction:         dir.String(),
					SimSHA256:         bitsDigest(res.Final.Sim),
					Evaluations:       res.Stats.Evaluations,
					CandidatesTried:   res.Stats.CandidatesTried,
					CandidatesAborted: res.Stats.CandidatesAborted,
					StepsAccepted:     res.Stats.StepsAccepted,
					Merged1:           candidateEvents(res.Merged1),
					Merged2:           candidateEvents(res.Merged2),
				}
				if first == nil {
					first = &g
					got = append(got, g)
				} else if !reflect.DeepEqual(*first, g) {
					t.Errorf("%s %v: workers=%d differs from workers=1:\n%+v\n%+v", p.Name, dir, workers, g, *first)
				}
			}
		}
	}
	// The pin is only worth something if the search merges and aborts.
	steps, aborted := 0, 0
	for _, g := range got {
		steps += g.StepsAccepted
		aborted += g.CandidatesAborted
	}
	if steps == 0 || aborted == 0 {
		t.Fatalf("golden workload is vacuous: %d accepted steps, %d aborted candidates", steps, aborted)
	}
	compareGolden(t, filepath.Join("testdata", "greedy_golden.json"), got)
}

func candidateEvents(cs []composite.Candidate) [][]string {
	out := [][]string{}
	for _, c := range cs {
		out = append(out, c.Events)
	}
	return out
}

func compareGolden(t *testing.T, path string, got []greedyGolden) {
	t.Helper()
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
	var want []greedyGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, got %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("run %d differs from the golden:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
